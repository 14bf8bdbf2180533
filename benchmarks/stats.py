"""Order statistics shared by the runner, the compare command and the tests.

Standard library only, so the orchestrator never imports numpy.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only where this many samples lie beyond it.
TAIL_SAMPLES_BEYOND = 10


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    """Nearest-rank percentile: the smallest value with ``percentile`` % of
    the samples at or below it."""
    n = len(sorted_values)
    index = max(math.ceil(percentile / 100.0 * n) - 1, 0)
    return sorted_values[min(index, n - 1)]


def median(values: list[float]) -> float:
    return nearest_rank(sorted(values), 50.0)


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has ``TAIL_SAMPLES_BEYOND`` samples above it.

    With n samples that is the nearest-rank percentile 100 (n - 10) / n, the
    eleventh-largest sample.  Fewer than 11 samples have no such percentile;
    the median is returned then, with the number of samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_SAMPLES_BEYOND:
        value = nearest_rank(ordered, 50.0)
        return value, 50.0, n - math.ceil(n / 2)
    percentile = 100.0 * (n - TAIL_SAMPLES_BEYOND) / n
    return ordered[n - TAIL_SAMPLES_BEYOND - 1], percentile, TAIL_SAMPLES_BEYOND


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
