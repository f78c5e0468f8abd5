"""Summary statistics, percentiles and CDFs for experiment results."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["Summary", "summarize", "percentile", "cdf_points"]


@dataclass
class Summary:
    """Mean/σ/percentile summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} std={self.std:.2f} "
            f"p50={self.p50:.2f} p95={self.p95:.2f} p99={self.p99:.2f}"
        )


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    low, high = sorted_values[lower], sorted_values[upper]
    # `low + (high - low) * weight` rounds monotonically in the weight
    # (`low * (1 - w) + high * w` does not: p95 could round above p99).
    # Clamp: it may still overshoot `high` by an ulp.
    return min(max(low + (high - low) * (position - lower), low), high)


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((v - mean) ** 2 for v in ordered) / count
    return Summary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        maximum=ordered[-1],
    )


def cdf_points(values: Sequence[float], points: int = 50) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting a latency CDF."""
    if not values:
        raise ValueError("cannot build a CDF from an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    step = max(1, count // points)
    out: List[Tuple[float, float]] = []
    for index in range(0, count, step):
        out.append((ordered[index], (index + 1) / count))
    if out[-1][0] != ordered[-1]:
        out.append((ordered[-1], 1.0))
    return out
