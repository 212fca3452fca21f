"""Order statistics shared by the launcher, the compare mode and the tests.

Standard library only: the launcher imports this module before any numeric
library is loaded.
"""

from __future__ import annotations

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it, and only for runs with at least MIN_TAIL_RUN samples.
TAIL_BEYOND = 10
MIN_TAIL_RUN = 40


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def tail_percentile(samples):
    """Highest percentile p (a whole number) with at least TAIL_BEYOND samples
    strictly above the value it names, returned as (p, value).

    The value is the nearest-rank percentile: the ceil(p/100 * n)-th smallest
    sample.  Returns None for fewer than MIN_TAIL_RUN samples, where that
    percentile would sit in the body of the distribution, not in its tail.
    """
    n = len(samples)
    if n < MIN_TAIL_RUN:
        return None
    ordered = sorted(samples)
    for p in range(99, 0, -1):
        rank = math.ceil(p / 100.0 * n)
        value = ordered[rank - 1]
        beyond = sum(1 for s in ordered if s > value)
        if beyond >= TAIL_BEYOND:
            return p, value
    return None
