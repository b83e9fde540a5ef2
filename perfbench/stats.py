"""Order statistics used by the benchmark's report."""

from __future__ import annotations

import math
from fractions import Fraction

# Tail percentiles tried from the highest down.
TAILS = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def _rank(count: int, p: float) -> int:
    # Exact decimal arithmetic: 99.9 / 100 * 10000 must give 9990, not 9991.
    return max(1, math.ceil(Fraction(str(p)) * count / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[_rank(len(ordered), p) - 1]


def beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank p-th percentile."""
    return count - _rank(count, p)


def tail_percentile(count: int) -> float | None:
    """The highest percentile in TAILS with at least MIN_BEYOND samples beyond it."""
    for p in TAILS:
        if beyond(count, p) >= MIN_BEYOND:
            return p
    return None
