"""Order statistics the benchmark reports.

Timings are summarised as a median and the highest percentile that has
at least :data:`MIN_BEYOND` samples beyond it.  The benchmark reports
p90, so every run must time at least :data:`MIN_ITEMS` items.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples a reported percentile needs strictly above its rank.
MIN_BEYOND = 10
#: Items a run must time so that p90 has ``MIN_BEYOND`` samples beyond it.
MIN_ITEMS = 100


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q``
    percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile q must be in (0, 100], got {q!r}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th."""
    return n - math.ceil(q / 100.0 * n)


def supported_percentile(values: Sequence[float], q: float) -> float:
    """``nearest_rank`` that refuses a percentile the sample cannot back."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return nearest_rank(values, q)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
