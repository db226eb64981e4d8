"""Campaign dispatch overhead: warm persistent pool vs spawn-per-task.

Spawning a fresh ``multiprocessing.Process`` for every task pays
interpreter setup + pipe plumbing on each one.  For the small tasks
that dominate service traffic and fine-grained sweeps (single-config
analytic characterizations, ~0.2 ms of real work), the spawn would be
the bottleneck: it costs an order of magnitude more than the task.

This benchmark runs the **same sweep** (small unique analytic tasks,
hardened with a per-task ``timeout_s``) two ways:

* ``spawn`` -- one fresh process per task, ``N_WORKERS`` at a time
  (the minimal baseline in ``_spawn.py``);
* ``warm``  -- :func:`repro.campaign.run_campaign`, which streams the
  tasks over its persistent pre-forked
  :class:`~repro.campaign.warmpool.WarmPool` with micro-batched
  dispatch.

and cross-checks the two result lists for **bit-identity** before
reporting the speedup.  Gate: the warm engine must be >= 5x faster on
the small-task sweep (typical observed: 8-15x on one core; the gap
widens with task count since warm amortizes its fixed fork cost).

Emits ``results/BENCH_runner_overhead.json`` for the CI artifact and
threshold re-check.
"""

from __future__ import annotations

import time

from repro.campaign import CampaignTask, run_campaign

from _spawn import spawn_per_task
from _util import emit

N_TASKS = 64
N_WORKERS = 2
TIMEOUT_S = 30.0

GATE_MIN_SPEEDUP = 5.0


def _tasks():
    """Small unique hardened tasks: seeds differ so nothing dedupes."""
    return [
        CampaignTask("analytic", {"n": 8, "r": 2, "p": 2}, seed=41_000 + i)
        for i in range(N_TASKS)
    ]


def _timed(run):
    start = time.perf_counter()
    results = run()
    return results, time.perf_counter() - start


def _warm():
    result = run_campaign(
        _tasks(), n_workers=N_WORKERS, timeout_s=TIMEOUT_S
    )
    assert result.ok, f"warm sweep quarantined: {result.failures}"
    return result.results


def _spawn():
    return spawn_per_task(
        _tasks(), n_workers=N_WORKERS, timeout_s=TIMEOUT_S
    )


def bench():
    # Warm-up both engines once so neither pays one-off import costs
    # inside the measured window.
    warmup = [CampaignTask("analytic", {"n": 8, "r": 2, "p": 2}, seed=1)]
    spawn_per_task(warmup, timeout_s=TIMEOUT_S)
    run_campaign(warmup, n_workers=1, timeout_s=TIMEOUT_S)

    spawn_results, spawn_s = _timed(_spawn)
    warm_results, warm_s = _timed(_warm)

    bit_identical = spawn_results == warm_results
    speedup = spawn_s / warm_s if warm_s > 0 else float("inf")
    rows = [
        {
            "engine": "spawn",
            "tasks": N_TASKS,
            "wall_s": round(spawn_s, 4),
            "ms_per_task": round(1e3 * spawn_s / N_TASKS, 3),
            "jobs_per_s": round(N_TASKS / spawn_s, 1),
        },
        {
            "engine": "warm",
            "tasks": N_TASKS,
            "wall_s": round(warm_s, 4),
            "ms_per_task": round(1e3 * warm_s / N_TASKS, 3),
            "jobs_per_s": round(N_TASKS / warm_s, 1),
            "speedup": round(speedup, 2),
            "bit_identical": bit_identical,
        },
    ]

    assert bit_identical, "warm-pool results diverge from spawn-per-task"
    assert speedup >= GATE_MIN_SPEEDUP, (
        f"warm-pool speedup {speedup:.2f}x < gate {GATE_MIN_SPEEDUP}x "
        f"(spawn {spawn_s:.3f}s vs warm {warm_s:.3f}s)"
    )
    return rows


def main() -> None:
    rows = bench()
    lines = [
        f"{row['engine']:<8}  "
        + "  ".join(f"{k}={v}" for k, v in row.items() if k != "engine")
        for row in rows
    ]
    emit(
        "runner_overhead",
        "\n".join(lines),
        data={"rows": rows},
        config={
            "n_tasks": N_TASKS,
            "n_workers": N_WORKERS,
            "timeout_s": TIMEOUT_S,
            "gate_min_speedup": GATE_MIN_SPEEDUP,
        },
    )


if __name__ == "__main__":
    main()
