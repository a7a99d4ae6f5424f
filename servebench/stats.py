"""Percentiles that carry their own sample support."""

from __future__ import annotations

import math
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1), linearly interpolated.

    Matches NumPy's default ("linear") method, so a benchmark figure can
    be checked against ``numpy.percentile(values, 100 * q)``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-quantile."""
    return n - math.ceil(q * n) if n else 0


def tail_supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q``-quantile."""
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


def summarize(values: Sequence[float],
              quantiles: Sequence[float] = (0.5, 0.95)) -> dict[str, object]:
    """Sample count plus each quantile and whether the sample supports it.

    A median needs no tail support; a quantile above it does.
    """
    summary: dict[str, object] = {"n": len(values)}
    for q in quantiles:
        key = f"p{round(q * 100):d}"
        summary[key] = percentile(values, q) if values else None
        summary[f"{key}_supported"] = bool(values) and (
            q <= 0.5 or tail_supported(len(values), q))
    return summary
