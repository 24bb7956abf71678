"""Order statistics used by the benchmark's reports.

Timings are reported as a median plus the highest percentile that the
sample supports: one with at least :data:`MIN_BEYOND` samples beyond
it.  Percentiles interpolate linearly between order statistics (the
``numpy.percentile`` default), so no numpy is needed in the load
generator.
"""

from __future__ import annotations

import math
import statistics

#: Percentiles a tail may be reported at, lowest first.
PERCENTILE_LADDER: tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``, linear rule."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> float:
    """Expected number of samples above the ``q``-th percentile of ``n``."""
    return n * (100.0 - q) / 100.0


def enough_beyond(n: int, q: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples put ``min_beyond`` beyond percentile ``q``
    (up to rounding: 100 samples hold ten beyond p90)."""
    return samples_beyond(n, q) >= min_beyond - 1e-9


def supported_percentile(n: int, ladder=PERCENTILE_LADDER,
                         min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest ladder percentile with ``min_beyond`` samples beyond it.

    None when even the median is unsupported (fewer than
    ``2 * min_beyond`` samples).
    """
    best = None
    for q in ladder:
        if enough_beyond(n, q, min_beyond):
            best = q
    return best


def median(values) -> float:
    """Median of a non-empty sample."""
    return statistics.median(values)
