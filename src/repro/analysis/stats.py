"""Shared descriptive statistics for every analysis layer.

Per-seed aggregation (mean / std / confidence intervals) for every
module that averages repeated measurements —
:mod:`repro.analysis.randomized_stats`, Table 1, the campaign drivers.
The campaign fit layer (:mod:`repro.analysis.fits`) builds its bootstrap
confidence bands on the same primitives.

Everything here is deterministic: the bootstrap takes an explicit seed
and uses :class:`random.Random`, so resampled intervals are reproducible
byte-for-byte across sessions — a requirement for committed campaign
artifacts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; ``0.0`` on an empty sequence."""
    if not values:
        return 0.0
    return sum(values) / len(values)


def sample_std(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator); ``0.0`` below n=2."""
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return (
        sum((value - centre) ** 2 for value in values) / (len(values) - 1)
    ) ** 0.5


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (q / 100.0) * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass(frozen=True)
class SummaryStats:
    """Mean / std / normal-approximation CI of one batch of values."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float
    confidence: float

    def to_dict(self, digits: int = 3) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": round(self.mean, digits),
            "std": round(self.std, digits),
            "ci_low": round(self.ci_low, digits),
            "ci_high": round(self.ci_high, digits),
            "confidence": self.confidence,
        }


def summarize(
    values: Sequence[float], confidence: float = 0.95
) -> SummaryStats:
    """Mean, sample std, and a normal-approximation confidence interval.

    The interval is ``mean ± z * std / sqrt(n)`` — the cheap parametric
    band.  For small seed counts or skewed metrics prefer
    :func:`bootstrap_mean_interval`, which makes no shape assumption.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    centre = mean(values)
    spread = sample_std(values)
    if len(values) >= 2:
        z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
        half_width = z * spread / (len(values) ** 0.5)
    else:
        half_width = 0.0
    return SummaryStats(
        count=len(values),
        mean=centre,
        std=spread,
        ci_low=centre - half_width,
        ci_high=centre + half_width,
        confidence=confidence,
    )


def bootstrap_mean_interval(
    values: Sequence[float],
    resamples: int = 1000,
    confidence: float = 0.95,
    seed: int = 0,
) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for the mean.

    Resamples ``values`` with replacement ``resamples`` times and returns
    the ``(low, high)`` percentile interval of the resampled means.
    Deterministic for a fixed ``seed``.
    """
    if not values:
        raise ValueError("bootstrap of an empty sequence")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    rng = random.Random(seed)
    means: List[float] = []
    for _ in range(resamples):
        sample = rng.choices(values, k=len(values))
        means.append(mean(sample))
    tail = (1.0 - confidence) / 2.0 * 100.0
    return percentile(means, tail), percentile(means, 100.0 - tail)
