"""Lightweight metric aggregation for experiments.

The benchmark harness needs summary statistics (mean / percentiles / max)
over latencies and sizes collected from traces.  ``numpy`` is available but
deliberately not required here: sample counts are small and keeping the
kernel dependency-free makes the simulator embeddable anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


@dataclass
class Summary:
    """Summary statistics of a sample."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    stddev: float

    def format(self, unit: str = "") -> str:
        suffix = f" {unit}" if unit else ""
        return (
            f"n={self.count} mean={self.mean:.3f}{suffix} "
            f"p50={self.p50:.3f}{suffix} p95={self.p95:.3f}{suffix} "
            f"max={self.maximum:.3f}{suffix}"
        )


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile on an already-sorted sample."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def summarize(values: Iterable[float]) -> Summary:
    """Compute a :class:`Summary`; raises ``ValueError`` on empty input."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("cannot summarize an empty sample")
    count = len(data)
    mean = sum(data) / count
    variance = sum((v - mean) ** 2 for v in data) / count
    return Summary(
        count=count,
        mean=mean,
        minimum=data[0],
        maximum=data[-1],
        p50=percentile(data, 0.50),
        p95=percentile(data, 0.95),
        stddev=math.sqrt(variance),
    )
