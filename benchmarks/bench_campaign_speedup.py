"""Campaign engine on the Table IV sweep: speedup, determinism, cache.

Runs the N=11 GeAr Monte-Carlo sweep (the paper's Table IV rows) through
the campaign engine three ways -- serial, 4 workers, and a warm-cache
rerun -- and records the wall-clocks under
``benchmarks/results/campaign_speedup.txt``.

The determinism and warm-cache guarantees are asserted unconditionally;
the >= 3x parallel-speedup bar only applies where the host actually has
four cores to offer.  On a smaller host forking cannot speed anything
up, so the speedup is recorded as ``"not measurable"`` rather than as a
slowdown (the wall-clocks are recorded either way).
"""

from __future__ import annotations

import os
import time

from repro.campaign import run_campaign
from repro.characterization.report import format_records
from repro.dse.explorer import gear_space_tasks

from _util import emit

N_SAMPLES = 1_000_000
N_WORKERS = 4


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def sweep_campaign(cache_dir: str):
    tasks = gear_space_tasks(11, model="monte_carlo", n_samples=N_SAMPLES,
                             seed=0)
    runs = {}
    rows = []

    def timed(label, **kwargs):
        start = time.perf_counter()
        runs[label] = run_campaign(tasks, **kwargs)
        wall = time.perf_counter() - start
        stats = runs[label].stats
        rows.append(
            {
                "run": label,
                "wall_s": round(wall, 2),
                "executed": stats.n_executed,
                "cache_hits": stats.n_cache_hits,
                "utilization%": round(100 * stats.worker_utilization),
            }
        )
        return wall

    serial_s = timed("serial")
    parallel_s = timed(f"{N_WORKERS}_workers", n_workers=N_WORKERS)
    timed("cold_cache", n_workers=N_WORKERS, cache_dir=cache_dir)
    timed("warm_cache", n_workers=N_WORKERS, cache_dir=cache_dir)
    speedup = (
        round(serial_s / parallel_s, 2) if _cores() >= N_WORKERS
        else "not measurable"
    )
    rows.append(
        {
            "run": "speedup",
            "wall_s": speedup,
            "executed": "-",
            "cache_hits": "-",
            "utilization%": "-",
        }
    )
    return rows, runs, speedup


def test_campaign_speedup(benchmark, tmp_path):
    rows, runs, speedup = benchmark.pedantic(
        sweep_campaign, args=(str(tmp_path / "cache"),), rounds=1,
        iterations=1,
    )
    emit(
        "campaign_speedup",
        format_records(
            rows,
            title=(
                f"Table IV Monte-Carlo sweep through the campaign engine "
                f"({N_SAMPLES} samples/row, host cores={_cores()})"
            ),
        ),
        data={"rows": rows, "parallel_speedup": speedup},
        config={
            "n_samples": N_SAMPLES,
            "n_workers": N_WORKERS,
            "host_cores": _cores(),
        },
    )
    # Bit-identical records no matter the worker count or cache state.
    reference = runs["serial"].results
    assert len(reference) == 17
    for label in (f"{N_WORKERS}_workers", "cold_cache", "warm_cache"):
        assert runs[label].results == reference, label
    # Warm rerun answers everything from the cache, computing nothing.
    assert runs["warm_cache"].stats.n_executed == 0
    assert runs["warm_cache"].stats.n_cache_hits == 17
    assert runs["cold_cache"].stats.n_executed == 17
    # The parallel bar needs real cores behind the workers.
    if _cores() >= N_WORKERS:
        assert speedup >= 3.0, rows
