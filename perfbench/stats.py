"""Percentiles and run-to-run spread."""

from __future__ import annotations

import math
import statistics

#: Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def rank(p: float, count: int) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` samples."""
    # the tolerance keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(p * count / 100 - 1e-9))


def percentile(ordered: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list (``0 < p <= 100``)."""
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[rank(p, len(ordered)) - 1]


def tail_percentile(count: int) -> float | None:
    """The highest ladder percentile with ≥ 10 samples beyond it.

    Samples beyond ``p`` are those ranked above the nearest rank of
    ``p``; ``None`` when even the median has fewer than ten beyond it.
    """
    for p in TAIL_LADDER:
        if count - rank(p, count) >= TAIL_MIN_BEYOND:
            return p
    return None


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the driver computes it."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median
