"""Exact percentiles over raw samples.

Nearest rank: the p-th percentile of ``n`` sorted samples is the sample
at 1-based rank ``ceil(p / 100 * n)``.  No histogram buckets, so a
latency of 3.0 reads 3.0, not the bucket edge above it.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles considered when reporting the highest one a sample supports.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def nearest_rank(sorted_samples: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (0 < p <= 100) of already-sorted samples."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    # Round away float noise first: 0.99 * 1000 must give rank 990, not 991.
    rank = math.ceil(round(p / 100.0 * n, 9))
    return sorted_samples[max(rank, 1) - 1]


def supported(n: int, p: float) -> bool:
    """Does a sample of ``n`` leave at least :data:`MIN_BEYOND` samples
    strictly beyond the ``p``-th percentile's rank?"""
    rank = math.ceil(round(p / 100.0 * n, 9))
    return n - rank >= MIN_BEYOND


def highest_supported(n: int) -> float | None:
    """The highest percentile of :data:`LADDER` that ``n`` samples support."""
    best = None
    for p in LADDER:
        if supported(n, p):
            best = p
    return best


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


class Samples:
    """A list of raw samples with the percentiles the benchmark reports."""

    def __init__(self, values: Sequence[float] = ()) -> None:
        self.values = list(values)

    def add(self, value: float) -> None:
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.values)

    def percentile(self, p: float) -> float:
        """Nearest-rank ``p``-th percentile; raises if the sample is too
        small to support it (fewer than 10 samples beyond)."""
        if not supported(len(self.values), p):
            raise TooFewSamples(
                f"p{p:g} needs at least {MIN_BEYOND} samples beyond it; "
                f"have {len(self.values)} samples"
            )
        return nearest_rank(sorted(self.values), p)

    def summary(self) -> str:
        """``n=… p50=… pX=…`` with X the highest supported percentile."""
        n = len(self.values)
        top = highest_supported(n)
        if top is None:
            return f"n={n} (too few for a percentile)"
        ordered = sorted(self.values)
        return (
            f"n={n} p50={nearest_rank(ordered, 50.0):.6g} "
            f"p{top:g}={nearest_rank(ordered, top):.6g} max={ordered[-1]:.6g}"
        )
