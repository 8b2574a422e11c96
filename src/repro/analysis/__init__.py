"""Analysis and experiment harness: fits, ablations, energy model."""

from .ablation import PhaseStats, boruvka_merge_structure, worst_merge_diameter
from .complexity import MODELS, ScalingFit, fit_scaling, geometric_mean
from .energy import EnergyModel
from .fits import FitBand, PointBand, fit_records, render_fit, seed_level_fit
from .phase_history import PhaseSnapshot, contraction_ratios, phase_history
from .randomized_stats import (
    ContractionReport,
    SuccessReport,
    contraction_statistics,
    fixed_mode_success_rate,
)
from .stats import mean, percentile
from .timeline import Timeline, awake_timeline
from .walkthrough import (
    NodeSnapshot,
    Walkthrough,
    build_walkthrough_instance,
    run_merging_walkthrough,
)

__all__ = [
    "ContractionReport",
    "EnergyModel",
    "FitBand",
    "PointBand",
    "SuccessReport",
    "Timeline",
    "awake_timeline",
    "contraction_ratios",
    "contraction_statistics",
    "fixed_mode_success_rate",
    "MODELS",
    "NodeSnapshot",
    "PhaseSnapshot",
    "PhaseStats",
    "ScalingFit",
    "Walkthrough",
    "boruvka_merge_structure",
    "build_walkthrough_instance",
    "fit_records",
    "fit_scaling",
    "mean",
    "percentile",
    "render_fit",
    "seed_level_fit",
    "geometric_mean",
    "phase_history",
    "run_merging_walkthrough",
    "worst_merge_diameter",
]
