"""Analysis and experiment harness: fits, tables, ablations, energy model."""

from .ablation import PhaseStats, boruvka_merge_structure, worst_merge_diameter
from .complexity import (
    MODELS,
    ScalingFit,
    best_model,
    doubling_ratios,
    fit_scaling,
    geometric_mean,
)
from .energy import EnergyModel
from .fits import FitBand, PointBand, fit_records, render_fit, seed_level_fit
from .phase_history import PhaseSnapshot, contraction_ratios, phase_history
from .randomized_stats import (
    ContractionReport,
    SuccessReport,
    contraction_statistics,
    fixed_mode_success_rate,
)
from .stats import (
    SummaryStats,
    bootstrap_mean_interval,
    mean,
    percentile,
    sample_std,
    summarize,
)
from .timeline import Timeline, awake_timeline
from .tables import (
    MeasuredRow,
    Table1,
    render_table,
    table1_from_records,
    table1_from_store,
)
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
    "SummaryStats",
    "Timeline",
    "awake_timeline",
    "contraction_ratios",
    "contraction_statistics",
    "fixed_mode_success_rate",
    "MODELS",
    "MeasuredRow",
    "NodeSnapshot",
    "PhaseSnapshot",
    "PhaseStats",
    "ScalingFit",
    "Table1",
    "Walkthrough",
    "best_model",
    "bootstrap_mean_interval",
    "boruvka_merge_structure",
    "build_walkthrough_instance",
    "doubling_ratios",
    "fit_records",
    "fit_scaling",
    "mean",
    "percentile",
    "render_fit",
    "sample_std",
    "seed_level_fit",
    "summarize",
    "geometric_mean",
    "phase_history",
    "render_table",
    "run_merging_walkthrough",
    "table1_from_records",
    "table1_from_store",
    "worst_merge_diameter",
]
