"""Summaries of timing samples."""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail is reported at, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def tail_percentile(count: int, cap: float = 100.0) -> float | None:
    """The highest ladder percentile, at most *cap*, that has at least
    :data:`MIN_BEYOND` of *count* samples beyond it; ``None`` if none has."""
    best = None
    for pct in PERCENTILE_LADDER:
        if pct <= cap and count * (100.0 - pct) / 100.0 >= MIN_BEYOND - 1e-9:
            best = pct
    return best


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of *values* (which must be non-empty)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * pct / 100.0))
    return ordered[rank - 1]


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
