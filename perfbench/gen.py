"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the run seed: the same seed gives
the same jobs, tenants, QoS flags and arrival schedule.  Every job's
task seed is ``(run_seed << 32) | index``, so two runs with different
seeds never share a content-addressed key and no run can be answered
from another run's cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

MAX_RUN_SEED = 1 << 31
TENANTS = ("t0", "t1", "t2", "t3")

#: GeAr ``(n, r, p)`` configurations of the small service jobs; each
#: kernel runs in well under a millisecond.
SMALL_CONFIGS = (
    (8, 2, 2), (10, 2, 4), (12, 2, 2), (12, 4, 4),
    (14, 2, 4), (16, 2, 2), (16, 4, 4), (16, 2, 6),
)
SMALL_KINDS = ("analytic", "gear_dse_row")

#: Share of ``svc_small`` jobs that declare a QoS budget.  A budget of
#: 1.0 can never be exceeded, so the admission predictor runs on these
#: jobs but never rewrites them.
QOS_SHARE = 0.25
QOS = {"error_budget": 1.0, "metric": "error_rate"}

#: One cycle of the ``campaign_fig`` batch: Fig. 6 multipliers (16x16
#: and 8x8), Fig. 8 SAD, Fig. 10 filter SSIM, GeAr N=32, ripple w=32.
CAMPAIGN_CYCLE: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("ripple_adder", {"width": 32, "fa": "ApxFA1", "num_approx_lsbs": 4,
                      "n_samples": 100_000}),
    ("multiplier", {"width": 16, "n_samples": 100_000}),
    ("sad_quality", {"n_pixels": 64, "fa": "ApxFA1", "approx_lsbs": 2}),
    ("multiplier", {"width": 8, "n_samples": 100_000}),
    ("filter_ssim", {"image": "blobs", "size": 128, "fa": "ApxFA2",
                     "approx_lsbs": 3}),
    ("gear_adder", {"n": 32, "r": 4, "p": 4, "n_samples": 100_000}),
)


@dataclass(frozen=True)
class Job:
    """One generated service request."""

    index: int
    tenant: str
    payload: Dict[str, Any]

    @property
    def qos(self) -> bool:
        return "qos" in self.payload


def check_run_seed(run_seed: int) -> int:
    if not 0 <= run_seed < MAX_RUN_SEED:
        raise ValueError(f"--seed must be in [0, 2**31), got {run_seed}")
    return run_seed


def task_seed(run_seed: int, index: int) -> int:
    return (check_run_seed(run_seed) << 32) | index


def _small_payload(rng: random.Random, seed: int, qos: bool) -> Dict[str, Any]:
    n, r, p = rng.choice(SMALL_CONFIGS)
    payload: Dict[str, Any] = {
        "kind": rng.choice(SMALL_KINDS),
        "params": {"n": n, "r": r, "p": p},
        "seed": seed,
    }
    if qos:
        payload["qos"] = dict(QOS)
    return payload


def small_jobs(run_seed: int) -> Iterator[Job]:
    """Unbounded stream of unique ``svc_small`` jobs."""
    rng = random.Random(f"svc_small:{run_seed}")
    index = 0
    while True:
        qos = rng.random() < QOS_SHARE
        yield Job(index, rng.choice(TENANTS),
                  _small_payload(rng, task_seed(run_seed, index), qos))
        index += 1


def take(stream: Iterator[Job], count: int) -> List[Job]:
    return [next(stream) for _ in range(count)]


def poisson_offsets(
    run_seed: int, rate_per_s: float, count: int, label: str
) -> List[float]:
    """Arrival offsets (seconds from the loop start) of ``count``
    independent users sending ``rate_per_s`` requests per second.

    A Poisson process conditioned on ``count`` arrivals in
    ``count / rate_per_s`` seconds: sorted uniform arrival times, so the
    window length, and with it the offered rate, is the same every run.
    """
    rng = random.Random(f"arrivals:{label}:{run_seed}")
    span = count / rate_per_s
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def campaign_cycles(run_seed: int) -> Iterator[List[Any]]:
    """Unbounded stream of ``campaign_fig`` batches, one cycle each."""
    from repro.campaign import CampaignTask

    index = 0
    while True:
        batch = []
        for kind, params in CAMPAIGN_CYCLE:
            batch.append(CampaignTask(kind=kind, params=dict(params),
                                      seed=task_seed(run_seed, index)))
            index += 1
        yield batch


def task_of(payload: Dict[str, Any]) -> Any:
    """The campaign task a service payload asks for (QoS never rewrites)."""
    from repro.campaign import CampaignTask

    return CampaignTask(kind=payload["kind"], params=dict(payload["params"]),
                        seed=int(payload["seed"]))


def key_of(payload: Dict[str, Any]) -> str:
    return task_of(payload).key

