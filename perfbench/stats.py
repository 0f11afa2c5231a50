"""Order statistics used by the benchmark report.

Item times are integer nanoseconds.  The median is the usual midpoint of
the sorted sample.  The tail is read at the highest percentile that still
has at least ``TAIL_BEYOND`` samples above it, never below the median.
"""

from __future__ import annotations

from typing import Sequence

#: Samples that must lie above the tail value for it to count as a percentile.
TAIL_BEYOND = 10


def median(values: Sequence[int | float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[int | float]) -> tuple[float, float, int]:
    """Return ``(value, percentile, beyond)`` for the tail of a sample.

    With n samples sorted ascending, the sample at index n - 1 - TAIL_BEYOND
    has exactly TAIL_BEYOND samples above it, and its percentile is the
    share of samples at or below it.  When that index would fall below the
    median (n < 2 * TAIL_BEYOND + 1), no percentile above the median has
    enough samples beyond it, and the tail is reported at the median
    (percentile 50) with the count of samples strictly above it.
    """
    n = len(values)
    if n == 0:
        raise ValueError("tail of an empty sample")
    ordered = sorted(values)
    index = n - 1 - TAIL_BEYOND
    if index < n // 2:  # n // 2 is the upper middle index
        value = median(ordered)
        beyond = sum(1 for v in ordered if v > value)
        return value, 50.0, beyond
    return float(ordered[index]), 100.0 * (index + 1) / n, n - 1 - index
