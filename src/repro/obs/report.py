"""Aggregation and rendering of span data.

Turns a :class:`~repro.obs.spans.SpanLog` into the per-phase × per-block
awake/message breakdown that checks the paper's accounting claims:
Theorem 1's ``Randomized-MST`` spends ``O(1)`` awake rounds in each of its
9 blocks per phase, and every toolbox procedure is individually
``O(1)``-awake.  The breakdown keys each (closed, non-root) span record by

* its **phase** — the number in the first ``phase:<p>`` segment of its
  path (``None`` for spans opened outside any phase), and
* its **block label** — the remaining path segments joined with ``/``
  (so the deterministic algorithm's two merge passes,
  ``merge:1/block:merge_up`` and ``merge:2/block:merge_up``, stay
  distinct).

Only *leaf charges* are aggregated (each record holds the rounds charged
to it directly, never to its children), so summing any partition of the
records reproduces exact totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .spans import SpanLog, UNATTRIBUTED

PHASE_PREFIX = "phase:"


def split_phase(path: Tuple[str, ...]) -> Tuple[Optional[int], str]:
    """Return ``(phase, block_label)`` for a span path."""
    if not path:
        return None, UNATTRIBUTED
    if path[0].startswith(PHASE_PREFIX):
        try:
            phase: Optional[int] = int(path[0][len(PHASE_PREFIX):])
        except ValueError:
            phase = None
        rest = path[1:]
        return phase, "/".join(rest) if rest else "(phase)"
    return None, "/".join(path)


@dataclass
class BlockCell:
    """Aggregate of one (phase, block) cell across all nodes."""

    #: Max over nodes of awake rounds charged to this cell.
    max_awake: int = 0
    #: Sum over nodes of awake rounds charged to this cell.
    total_awake: int = 0
    messages: int = 0
    bits: int = 0
    #: Nodes with at least one charge in this cell.
    active_nodes: int = 0
    #: Per-node awake totals (for bound assertions in tests).
    per_node: Dict[int, int] = field(default_factory=dict)


@dataclass
class BlockBreakdown:
    """The full per-phase × per-block matrix plus its axes."""

    #: Block labels in first-seen (execution) order.
    blocks: List[str]
    #: Sorted phase numbers (``None`` sorts first, shown as ``-``).
    phases: List[Optional[int]]
    #: ``cells[(block, phase)]`` — missing cells mean no charges.
    cells: Dict[Tuple[str, Optional[int]], BlockCell]

    def cell(self, block: str, phase: Optional[int]) -> Optional[BlockCell]:
        return self.cells.get((block, phase))

    def block_max_awake(self, block: str) -> int:
        """Max per-node awake in ``block`` over every phase."""
        return max(
            (cell.max_awake for (label, _), cell in self.cells.items() if label == block),
            default=0,
        )


def block_breakdown(spans: SpanLog) -> BlockBreakdown:
    """Aggregate a span log into the per-phase × per-block matrix."""
    blocks: List[str] = []
    phase_set: set = set()
    cells: Dict[Tuple[str, Optional[int]], BlockCell] = {}
    for record in sorted(spans, key=lambda r: r.index):
        if not record.awake and not record.messages:
            continue  # empty instance (e.g. a non-merging node's merge span)
        phase, block = split_phase(record.path)
        if block not in blocks:
            blocks.append(block)
        phase_set.add(phase)
        cell = cells.get((block, phase))
        if cell is None:
            cell = BlockCell()
            cells[(block, phase)] = cell
        node_awake = cell.per_node.get(record.node, 0) + record.awake
        cell.per_node[record.node] = node_awake
        cell.max_awake = max(cell.max_awake, node_awake)
        cell.total_awake += record.awake
        cell.messages += record.messages
        cell.bits += record.bits
        cell.active_nodes = len(cell.per_node)
    phases = sorted(phase_set, key=lambda p: (p is not None, p))
    return BlockBreakdown(blocks=blocks, phases=phases, cells=cells)


def render_block_table(
    spans: SpanLog,
    value: str = "max_awake",
    max_phases: int = 12,
) -> str:
    """Render the breakdown as a fixed-width text table.

    Rows are blocks (execution order), columns are phases, cells show
    ``value`` (``max_awake`` — the per-block awake bound — by default;
    ``total_awake`` or ``messages`` also work).  A trailing ``max`` column
    gives the per-block maximum across phases.
    """
    breakdown = block_breakdown(spans)
    if not breakdown.cells:
        return "(no span data)"
    shown = breakdown.phases[:max_phases]
    elided = len(breakdown.phases) - len(shown)

    def cell_value(cell: Optional[BlockCell]) -> str:
        if cell is None:
            return "."
        return str(getattr(cell, value))

    width = max(len("block"), max(len(block) for block in breakdown.blocks))
    headers = ["-" if phase is None else f"p{phase}" for phase in shown]
    if elided > 0:
        headers.append("...")
    headers.append("max")
    col = max(4, max((len(h) for h in headers), default=4) + 1)
    lines = [
        f"{'block':<{width}}" + "".join(f"{h:>{col}}" for h in headers)
    ]
    for block in breakdown.blocks:
        row = [cell_value(breakdown.cell(block, phase)) for phase in shown]
        if elided > 0:
            row.append("...")
        row.append(str(breakdown.block_max_awake(block)))
        lines.append(
            f"{block:<{width}}" + "".join(f"{v:>{col}}" for v in row)
        )
    if elided > 0:
        lines.append(f"({elided} more phase(s) not shown)")
    return "\n".join(lines)


def check_awake_identity(spans: SpanLog, metrics: Any) -> Dict[int, Tuple[int, int]]:
    """Compare span-attributed awake rounds with the engine's counters.

    Returns ``{node: (span_sum, engine_awake)}`` for every node where the
    two disagree — an empty dict means the accounting identity holds
    exactly.  ``metrics`` is the run's :class:`repro.sim.Metrics`.
    """
    span_totals = spans.per_node_awake(include_root=True)
    mismatches: Dict[int, Tuple[int, int]] = {}
    for node_id, node_metrics in metrics.per_node.items():
        span_sum = span_totals.get(node_id, 0)
        if span_sum != node_metrics.awake_rounds:
            mismatches[node_id] = (span_sum, node_metrics.awake_rounds)
    for node_id, span_sum in span_totals.items():
        if node_id not in metrics.per_node and span_sum:
            mismatches[node_id] = (span_sum, 0)
    return mismatches
