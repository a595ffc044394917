"""Percentile, geometric-mean and spread helpers (no third-party imports)."""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0–100) with linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; every value must be positive."""
    if not values:
        raise ValueError("geomean of no values")
    return math.exp(sum(math.log(value) for value in values) / len(values))


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the steadiness
    figure the acceptance rule is written in."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)
