"""Order statistics for latency samples."""

import statistics

TAIL_BEYOND = 10


def median(values):
    return statistics.median(values) if values else float("nan")


def tail(values):
    """(value, percentile) of the highest percentile with ten samples beyond it.

    Sorted ascending, that is the (n - 10)-th value: exactly ten samples
    lie above it and it sits at percentile 100 * (n - 10) / n.  With ten
    samples or fewer no percentile qualifies, and the maximum is
    reported at percentile 100.
    """
    if not values:
        return float("nan"), float("nan")
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n

