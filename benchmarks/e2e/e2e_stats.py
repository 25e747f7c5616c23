"""Order statistics shared by ``run.py`` and ``compare.py``."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

import numpy as np

#: Percentiles (in per-mille) a latency tail may be reported at, highest first.
TAIL_LADDER_PER_MILLE = (999, 990, 900, 500)

#: A tail percentile is only reported when this many samples lie beyond it.
MIN_SAMPLES_BEYOND = 10


def samples_beyond(n: int, per_mille: int) -> int:
    """Samples strictly above the ``per_mille`` order statistic of ``n``."""
    return n - (n * per_mille + 999) // 1000


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least 10 of ``n`` samples beyond it.

    Returns ``None`` when even the median has fewer than 10 samples above it.
    """
    for per_mille in TAIL_LADDER_PER_MILLE:
        if samples_beyond(n, per_mille) >= MIN_SAMPLES_BEYOND:
            return per_mille / 10.0
    return None


def latency_summary(samples_s: Sequence[float]) -> dict:
    """Median, p90 and the highest supported tail (seconds in, ms out).

    ``tail_pct`` is the highest ladder percentile with at least 10 samples
    beyond it (``None``, with the maximum as ``tail_ms``, when not even the
    median has that many).
    """
    arr = np.asarray(samples_s, dtype=np.float64) * 1e3
    if arr.size == 0:
        raise ValueError("no latency samples recorded.")
    tail = tail_percentile(arr.size)
    return {
        "n": int(arr.size),
        "p50_ms": float(np.percentile(arr, 50.0)),
        "p90_ms": float(np.percentile(arr, 90.0)),
        "tail_pct": tail,
        "tail_ms": float(
            np.percentile(arr, tail) if tail is not None else arr.max()
        ),
    }


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no values.")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 when median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0
