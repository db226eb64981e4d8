"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(n: int, max_q: float = 99.9) -> Optional[float]:
    """Highest percentile of the ladder, at most ``max_q``, that leaves at
    least :data:`MIN_BEYOND` of ``n`` samples beyond it; ``None`` if none.

    ``max_q`` caps the choice at the highest percentile that stays steady
    from run to run on a workload (fixed per workload, so that two runs
    of equal length always report the same percentile).
    """
    for q in TAIL_LADDER:
        if q <= max_q and n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


class TooFewSamples(ValueError):
    """The run is too short to support any tail percentile."""


def tail(values: Sequence[float], max_q: float) -> Tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` for the chosen tail."""
    q = tail_percentile(len(values), max_q)
    if q is None:
        raise TooFewSamples(
            f"{len(values)} samples cannot support a tail percentile"
        )
    value = percentile(values, q)
    return q, value, sum(1 for v in values if v > value)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
