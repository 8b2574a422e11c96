"""Statistical fits of awake curves with bootstrap confidence bands.

The paper's headline claims are curves — awake complexity staying
``O(log n)`` (MST) or ``O(log log n)`` (MIS) while round and message
complexity stay near-optimal.  This module turns the per-seed records a
campaign grid produces into a least-squares fit of ``metric ≈ c *
model(n)`` plus *seed-level bootstrap* confidence bands: seeds are the
unit of resampling (each bootstrap replicate re-draws whole seed columns
with replacement), so the bands reflect run-to-run randomness rather
than within-run noise.

Everything is deterministic for a fixed ``seed``: the bootstrap draws
from its own :class:`random.Random`, which is what lets a committed
campaign artifact pin its confidence bands byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import random

from .complexity import MODELS, fit_scaling
from .stats import mean, percentile


@dataclass(frozen=True)
class PointBand:
    """One fitted size: observed mean plus its bootstrap band."""

    n: int
    mean: float
    low: float
    high: float
    #: Seed replicates observed at this size.
    samples: int

    def to_dict(self, digits: int = 3) -> Dict[str, Any]:
        return {
            "n": self.n,
            "mean": round(self.mean, digits),
            "low": round(self.low, digits),
            "high": round(self.high, digits),
            "samples": self.samples,
        }


@dataclass(frozen=True)
class FitBand:
    """A scaling fit with bootstrap confidence intervals.

    ``constant`` is the least-squares constant of ``metric ≈ c *
    model(n)`` over the observed per-size means; ``constant_low`` /
    ``constant_high`` bound it across bootstrap replicates, and each
    :class:`PointBand` bounds the per-size mean the same way.
    """

    metric: str
    model: str
    constant: float
    constant_low: float
    constant_high: float
    ratio_spread: float
    confidence: float
    resamples: int
    points: Tuple[PointBand, ...]

    def to_dict(self, digits: int = 4) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "model": self.model,
            "constant": round(self.constant, digits),
            "constant_low": round(self.constant_low, digits),
            "constant_high": round(self.constant_high, digits),
            "ratio_spread": round(self.ratio_spread, digits),
            "confidence": self.confidence,
            "resamples": self.resamples,
            "points": [point.to_dict() for point in self.points],
        }


def seed_level_fit(
    values: Mapping[int, Mapping[int, float]],
    metric: str = "max_awake",
    model: str = "log",
    resamples: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> FitBand:
    """Fit ``metric ≈ c * model(n)`` with seed-level bootstrap bands.

    ``values`` maps ``n -> {seed -> measured value}``.  Each bootstrap
    replicate draws seeds with replacement from the union of observed
    seeds, recomputes every per-size mean over the drawn seeds (skipping
    sizes a drawn seed is missing from), and refits the constant — so the
    interval answers "had we run a different batch of seeds, how much
    would the fitted curve move?".
    """
    if model not in MODELS:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(MODELS)}"
        )
    if not values:
        raise ValueError("seed_level_fit needs at least one size")
    if resamples < 1:
        raise ValueError(f"resamples must be >= 1, got {resamples}")
    sizes = sorted(values)
    seed_pool = sorted({s for by_seed in values.values() for s in by_seed})
    if not seed_pool:
        raise ValueError("seed_level_fit needs at least one seed per size")

    observed_means = [mean(list(values[n].values())) for n in sizes]
    base_fit = fit_scaling(sizes, observed_means, model)

    rng = random.Random(seed)
    constants: List[float] = []
    point_samples: Dict[int, List[float]] = {n: [] for n in sizes}
    for _ in range(resamples):
        drawn = rng.choices(seed_pool, k=len(seed_pool))
        replicate_means = []
        for n in sizes:
            by_seed = values[n]
            picked = [by_seed[s] for s in drawn if s in by_seed]
            replicate = mean(picked) if picked else mean(
                list(by_seed.values())
            )
            replicate_means.append(replicate)
            point_samples[n].append(replicate)
        constants.append(fit_scaling(sizes, replicate_means, model).constant)

    tail = (1.0 - confidence) / 2.0 * 100.0
    points = tuple(
        PointBand(
            n=n,
            mean=observed,
            low=percentile(point_samples[n], tail),
            high=percentile(point_samples[n], 100.0 - tail),
            samples=len(values[n]),
        )
        for n, observed in zip(sizes, observed_means)
    )
    return FitBand(
        metric=metric,
        model=model,
        constant=base_fit.constant,
        constant_low=percentile(constants, tail),
        constant_high=percentile(constants, 100.0 - tail),
        ratio_spread=base_fit.ratio_spread,
        confidence=confidence,
        resamples=resamples,
        points=points,
    )


def fit_records(
    records: Sequence[Mapping[str, Any]],
    metric: str = "max_awake",
    model: str = "log",
    algorithm: Optional[str] = None,
    resamples: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> FitBand:
    """Fit orchestrator metrics records (``execute_job`` dicts).

    Records missing the metric (failed or crashed cells) are skipped;
    ``algorithm`` optionally restricts to one algorithm's cells.
    """
    values: Dict[int, Dict[int, float]] = {}
    for record in records:
        if algorithm is not None and record.get("algorithm") != algorithm:
            continue
        value = record.get(metric)
        if value is None:
            continue
        values.setdefault(int(record["n"]), {})[
            int(record["seed"])
        ] = float(value)
    if not values:
        raise ValueError(
            f"no usable records to fit metric {metric!r}"
            + (f" for algorithm {algorithm!r}" if algorithm else "")
        )
    return seed_level_fit(
        values,
        metric=metric,
        model=model,
        resamples=resamples,
        confidence=confidence,
        seed=seed,
    )


def render_fit(name: str, fit: Mapping[str, Any]) -> str:
    """Render one fit payload (:meth:`FitBand.to_dict`) as a text block."""
    lines = [
        f"{name}: {fit['metric']} = {fit['constant']:.2f} x {fit['model']}(n)"
        f"  [{fit['constant_low']:.2f}, {fit['constant_high']:.2f}]"
        f" @ {int(fit['confidence'] * 100)}% ({fit['resamples']} resamples)"
    ]
    for point in fit["points"]:
        lines.append(
            f"  n={point['n']:>6}  mean {point['mean']:>10.2f}  "
            f"band [{point['low']:.2f}, {point['high']:.2f}]  "
            f"seeds={point['samples']}"
        )
    return "\n".join(lines)
