"""Traditional-model baselines: always-awake GHS accounting and flooding."""

from .always_awake import run_traditional_ghs, traditional_metrics
from .ghs import ghs_phase_budget, ghs_phase_rounds, pipelined_ghs_protocol, run_pipelined_ghs
from .flooding import (
    FloodingOutput,
    flooding_broadcast_protocol,
    run_flooding_broadcast,
)

__all__ = [
    "FloodingOutput",
    "flooding_broadcast_protocol",
    "ghs_phase_budget",
    "ghs_phase_rounds",
    "pipelined_ghs_protocol",
    "run_flooding_broadcast",
    "run_pipelined_ghs",
    "run_traditional_ghs",
    "traditional_metrics",
]
