"""Core algorithms: LDT toolbox, Randomized-MST, Deterministic-MST."""

from .ldt import LDTState, check_fldt, fragment_tree_edges
from .logstar import cv_iterations, cv_step, logstar_coloring, logstar_total_blocks
from .merging import MERGE_BLOCKS, merging_fragments
from .mst_randomized import (
    MSTNodeOutput,
    PHASE_BLOCKS,
    randomized_mst_protocol,
    randomized_mst_session,
    randomized_phase_count,
)
from .runner import (
    MSTRunResult,
    RunResult,
    run_deterministic_mst,
    run_randomized_mst,
)
from .schedule import (
    Block,
    BlockClock,
    block_span,
    down_receive_offset,
    down_send_offset,
    side_offset,
    up_receive_offset,
    up_send_offset,
)
from .toolbox import (
    NOTHING,
    fragment_broadcast,
    local_moe,
    min_merge,
    neighbor_awareness,
    neighbor_refresh,
    transmit_adjacent,
    upcast_aggregate,
    upcast_min,
)

__all__ = [
    "Block",
    "BlockClock",
    "LDTState",
    "MERGE_BLOCKS",
    "MSTNodeOutput",
    "MSTRunResult",
    "NOTHING",
    "PHASE_BLOCKS",
    "RunResult",
    "block_span",
    "check_fldt",
    "cv_iterations",
    "cv_step",
    "down_receive_offset",
    "down_send_offset",
    "fragment_broadcast",
    "fragment_tree_edges",
    "local_moe",
    "logstar_coloring",
    "logstar_total_blocks",
    "merging_fragments",
    "min_merge",
    "neighbor_awareness",
    "neighbor_refresh",
    "randomized_mst_protocol",
    "randomized_mst_session",
    "randomized_phase_count",
    "run_deterministic_mst",
    "run_randomized_mst",
    "side_offset",
    "transmit_adjacent",
    "up_receive_offset",
    "up_send_offset",
    "upcast_aggregate",
    "upcast_min",
]
