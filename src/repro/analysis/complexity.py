"""Complexity-fitting helpers for the scaling experiments.

The paper's claims are asymptotic (``O(log n)`` awake, ``O(n log n)`` /
``O(nN log n)`` rounds); the benchmarks verify them by measuring the
quantity across a range of ``n`` and checking that the ratio to the claimed
model stays bounded (and roughly flat), via a least-squares constant fit
plus the spread of per-point ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

#: Named asymptotic models mapping n -> predicted shape (up to a constant).
MODELS: Dict[str, Callable[[float], float]] = {
    "const": lambda n: 1.0,
    "log": lambda n: math.log2(max(2.0, n)),
    "loglog": lambda n: math.log2(max(2.0, math.log2(max(2.0, n)))),
    "linear": lambda n: float(n),
    "nlog": lambda n: n * math.log2(max(2.0, n)),
    "n2log": lambda n: n * n * math.log2(max(2.0, n)),
    "sqrt": lambda n: math.sqrt(n),
}


@dataclass(frozen=True)
class ScalingFit:
    """Result of fitting ``y ≈ constant * model(n)``."""

    model: str
    #: Least-squares constant.
    constant: float
    #: Per-point ratios ``y_i / model(n_i)``.
    ratios: Tuple[float, ...]
    #: max(ratios) / min(ratios) — 1.0 means a perfect shape match; a
    #: measurement growing faster or slower than the model inflates it.
    ratio_spread: float


def fit_scaling(
    ns: Sequence[float], ys: Sequence[float], model: str
) -> ScalingFit:
    """Fit ``y = c * model(n)`` by least squares through the origin."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(MODELS)}")
    if len(ns) != len(ys) or not ns:
        raise ValueError("ns and ys must be equal-length and non-empty")
    shape = MODELS[model]
    xs = [shape(n) for n in ns]
    numerator = sum(x * y for x, y in zip(xs, ys))
    denominator = sum(x * x for x in xs)
    constant = numerator / denominator if denominator else 0.0
    ratios = tuple(y / x for x, y in zip(xs, ys) if x > 0)
    spread = (max(ratios) / min(ratios)) if ratios and min(ratios) > 0 else math.inf
    return ScalingFit(
        model=model, constant=constant, ratios=ratios, ratio_spread=spread
    )


def geometric_mean(values: Sequence[float]) -> float:
    positives = [value for value in values if value > 0]
    if not positives:
        return 0.0
    return math.exp(sum(math.log(value) for value in positives) / len(positives))
