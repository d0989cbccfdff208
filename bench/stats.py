"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  With n samples, n - ceil(q*n/100)
    samples lie beyond it, so p90 over 100 samples leaves exactly 10."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered) / 100) - 1]


def decile_means(values: Sequence[float]) -> tuple:
    """Mean of the first and of the last tenth of ``values``, in the order
    given (at least one sample each)."""
    if not values:
        raise ValueError("deciles of no samples")
    k = max(1, len(values) // 10)
    return sum(values[:k]) / k, sum(values[-k:]) / k
