"""Order statistics shared by the benchmark runner and the steadiness report."""

from __future__ import annotations

import statistics


def tail(values, beyond=10):
    """The sample at the highest percentile with at least ``beyond`` samples
    above it, as ``(value, percentile, sample_count)``.

    With N sorted samples that is the (N - beyond)-th smallest, at percentile
    100 * (N - beyond) / N.  Fewer than ``beyond + 1`` samples leave no such
    percentile; the maximum is returned at percentile 100 instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= beyond:
        return ordered[-1], 100.0, n
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n


def quartile_spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")
