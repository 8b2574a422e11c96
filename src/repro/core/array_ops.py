"""Vectorized ``Randomized-MST`` over the array simulation backend.

This module re-executes the exact phase plan of
:mod:`repro.core.mst_randomized` — nine Transmission-Schedule blocks per
phase — but instead of advancing one coroutine per node it computes each
block's effect on *all* nodes with numpy kernels:

* fragment labels / levels / parent pointers are int arrays over the
  node index (sorted-ID order, matching the coroutine engine);
* ``Transmit-Adjacent`` blocks are a single gather over the CSR directed
  edge arrays of :class:`repro.sim.array_engine.ArrayGraph`;
* ``Upcast-Min`` is a level-ordered segmented minimum
  (:func:`subtree_min`) pushing subtree minima up parent pointers;
* MOE selection is an edge-mask + per-source scatter (:func:`owner_edges`);
* ``Merging-Fragments`` re-roots each tails fragment by walking the
  ``u_T`` → old-root chains upward and filling the off-path nodes in
  old-level order (:func:`reroot_merging_fragments`) — reproducing the
  up/down passes of :mod:`repro.core.merging` without per-node message
  flow.

Per-block awake rounds, message counts, and payload bits are charged to a
:class:`repro.sim.array_engine.BlockAccountant` using the closed-form
accounting the Transmission-Schedule guarantees (every receiver of every
block is provably awake in the sending round, so nothing is ever lost
under the perfect channel — the coroutine engine's metrics confirm 0
losses on every Randomized-MST run).  The result is **byte-identical**
per-node :class:`~repro.sim.metrics.NodeMetrics` and
:class:`~repro.sim.metrics.Metrics` summaries; the equivalence suite in
``tests/core/test_array_equivalence.py`` and
``tests/sim/test_array_engine.py`` pins this against the coroutine
engine over random seeds and graph families.

RNG parity: the coroutine engine gives node ``v`` the private generator
``Random(f"{seed}/{v}")`` and only fragment *roots* draw — one coin per
phase, in block 3, including the final halting phase.  The array backend
keeps the same per-node ``Random`` objects and draws for exactly the
current root set each phase, so coins (and therefore merges, phase
counts, and the final MST labels) match draw for draw.
"""

from __future__ import annotations

from random import Random
from typing import Any, Dict, List, Optional, Tuple

from repro.sim.array_engine import (
    ArrayGraph,
    BlockAccountant,
    NONE_BITS,
    TUPLE_OVERHEAD,
    int_field_bits,
    validate_array_sim_kwargs,
)
from repro.sim.engine import SimulationResult

from .mst_randomized import HEADS, TAILS, MSTNodeOutput, randomized_phase_count
from .schedule import block_span

try:  # pragma: no cover - exercised implicitly by every array-engine test
    import numpy as np
except ImportError:  # pragma: no cover - the CI image always has numpy
    np = None

#: Sentinel for :data:`repro.core.toolbox.NOTHING` inside int64 arrays.
#: Minima ignore it naturally (it is the identity of ``min``), matching
#: ``min_merge``; payload sizing maps it back to ``None`` (3 bits).
INT_NOTHING = (1 << 62)


def level_groups(level: Any, mask: Any = None) -> List[Tuple[int, Any]]:
    """Group node indices by level, ascending; vectorized bodies per group.

    Fragment trees satisfy ``level[parent] == level[child] - 1``, so
    processing groups in (reverse) order makes one ``np.minimum.at`` /
    gather per level a correct convergecast (broadcast) step.
    """
    if mask is None:
        idx = np.arange(level.shape[0], dtype=np.int64)
    else:
        idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return []
    order = np.argsort(level[idx], kind="stable")
    idx = idx[order]
    levels = level[idx]
    boundaries = np.nonzero(np.diff(levels))[0] + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [idx.size]))
    return [
        (int(levels[s]), idx[s:e]) for s, e in zip(starts, ends)
    ]


def subtree_min(
    parent: Any, groups: List[Tuple[int, Any]], values: Any
) -> Any:
    """Per-node minimum over its fragment subtree (``Upcast-Min`` result).

    ``groups`` is :func:`level_groups` of the current trees.  Children are
    folded into parents deepest level first, so ``combined[v]`` ends as
    the minimum of ``values`` over ``v``'s subtree — the value ``v`` sends
    up in the coroutine engine, and at roots the fragment aggregate.
    """
    combined = values.copy()
    for lev, nodes in reversed(groups):
        if lev == 0:
            continue
        np.minimum.at(combined, parent[nodes], combined[nodes])
    return combined


def owner_edges(g: ArrayGraph, frag: Any, moe_weight: Any, coin: Any):
    """Locate each fragment's MOE owner ``u_T`` and its validity bit.

    A node owns its fragment's MOE when one of its ports carries exactly
    the broadcast MOE weight *and* leads outside the fragment (weights
    are globally distinct, so at most one directed edge per fragment
    matches).  Validity follows the paper's star rule: tails here, heads
    there.  Returns ``(owner_edge, owner_valid)`` per node, ``-1`` /
    :data:`INT_NOTHING` for non-owners.
    """
    n = g.n
    own = (
        (moe_weight[g.src] != 0)
        & (g.weight == moe_weight[g.src])
        & (frag[g.dst] != frag[g.src])
    )
    owner_edge = np.full(n, -1, dtype=np.int64)
    owner_valid = np.full(n, INT_NOTHING, dtype=np.int64)
    edges = np.nonzero(own)[0]
    if edges.size:
        owners = g.src[edges]
        owner_edge[owners] = edges
        owner_valid[owners] = (
            (coin[owners] == TAILS) & (coin[g.dst[edges]] == HEADS)
        ).astype(np.int64)
    return owner_edge, owner_valid


def reroot_merging_fragments(
    g: ArrayGraph,
    parent: Any,
    parent_edge: Any,
    frag: Any,
    level: Any,
    groups: List[Tuple[int, Any]],
    merging: Any,
    merge_edge: Any,
):
    """Compute the post-merge labels of every merging node.

    Mirrors the up/down passes of :func:`repro.core.merging
    .merging_fragments`: each ``u_T`` (with ``merge_edge >= 0``) anchors
    at its heads neighbour; the old-tree ancestor chain up to the old
    root reverses its parent pointers (the block-8 path); every other
    merging node keeps its pointers and re-levels from its parent (the
    block-9 down pass, applied in old-level order).

    Returns ``(new_level, new_frag, new_parent, new_parent_edge,
    path_mask)`` — the ``new_*`` arrays are only meaningful at merging
    nodes.
    """
    n = g.n
    new_level = np.full(n, -1, dtype=np.int64)
    new_frag = np.full(n, -1, dtype=np.int64)
    new_parent = parent.copy()
    new_parent_edge = parent_edge.copy()
    path_mask = np.zeros(n, dtype=bool)

    u_t = np.nonzero(merge_edge >= 0)[0]
    if u_t.size:
        heads = g.dst[merge_edge[u_t]]
        new_frag[u_t] = frag[heads]
        new_level[u_t] = level[heads] + 1
        new_parent[u_t] = heads
        new_parent_edge[u_t] = merge_edge[u_t]
        path_mask[u_t] = True

        # Up pass: one u_T per fragment, so the ancestor chains are
        # disjoint and each hop is a clean vectorized assignment.
        current = u_t
        while current.size:
            parents = parent[current]
            alive = parents >= 0
            if not np.any(alive):
                break
            children = current[alive]
            parents = parents[alive]
            new_level[parents] = new_level[children] + 1
            new_frag[parents] = new_frag[children]
            new_parent[parents] = children
            new_parent_edge[parents] = g.rev[parent_edge[children]]
            path_mask[parents] = True
            current = parents

    # Down pass: off-path merging nodes adopt parent's values + 1, in old
    # level order (their parent is strictly shallower, hence already set).
    for _, nodes in groups:
        nodes = nodes[merging[nodes] & ~path_mask[nodes]]
        if nodes.size == 0:
            continue
        parents = parent[nodes]
        new_level[nodes] = new_level[parents] + 1
        new_frag[nodes] = new_frag[parents]
    return new_level, new_frag, new_parent, new_parent_edge, path_mask


def _scalar_bits(values: Any) -> Any:
    """Payload bits of a scalar upcast/broadcast value (None at NOTHING)."""
    return np.where(
        values == INT_NOTHING, NONE_BITS, int_field_bits(values)
    )


def run_randomized_mst_array(
    graph: Any,
    seed: int = 0,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
    **sim_kwargs: Any,
) -> SimulationResult:
    """Execute ``Randomized-MST`` on the vectorized array backend.

    Drop-in replacement for running
    :func:`repro.core.mst_randomized.randomized_mst_protocol` under
    :class:`repro.sim.SleepingSimulator` with the default perfect
    channel and no observers — same node outputs, same metrics, same
    rounds.  Unsupported simulator features raise
    :class:`repro.sim.errors.UnsupportedFeatureError` (see
    :func:`repro.sim.array_engine.validate_array_sim_kwargs`).
    """
    supported = validate_array_sim_kwargs(sim_kwargs)
    if termination not in ("adaptive", "fixed"):
        raise ValueError(f"unknown termination mode {termination!r}")
    adaptive = termination == "adaptive"

    g = ArrayGraph(graph)
    n = g.n
    acc = BlockAccountant(g, **supported)
    ids = g.ids

    phase_budget = (
        max_phases if max_phases is not None else randomized_phase_count(n)
    )
    phases_run = 0

    # State arrays (node index = rank of the node ID in sorted order).
    frag = ids.copy()
    level = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)

    # Per-node RNGs, seeded exactly like NodeContext.rng; only current
    # fragment roots draw (once per phase, in block 3).
    rngs = [Random(f"{seed}/{node_id}") for node_id in ids.tolist()]

    span = block_span(n) if n >= 1 else 0
    next_block_start = 1

    trivial = n == 1 or g.m_directed == 0
    while not trivial and phases_run < phase_budget:
        phases_run += 1
        starts = [next_block_start + b * span for b in range(9)]

        is_root = parent < 0
        nonroot = ~is_root
        child_count = np.bincount(
            parent[nonroot], minlength=n
        ).astype(np.int64)
        has_children = child_count > 0
        root_idx = np.searchsorted(ids, frag)
        groups = level_groups(level)
        up_receive_round = 2 * n - level  # + start - ... added per block
        down_receive_round = level - 1

        # ----- Block 1: neighbor_refresh — (fragment, level) on all ports.
        acc.charge_awake(None, starts[0] + n)
        pb1 = TUPLE_OVERHEAD + int_field_bits(frag) + int_field_bits(level)
        acc.charge_side_exchange(pb1)

        # Local MOE candidates: lightest incident edge leaving the fragment.
        outgoing = frag[g.dst] != frag[g.src]
        edge_weight = np.where(outgoing, g.weight, INT_NOTHING)
        candidate = np.minimum.reduceat(edge_weight, g.indptr[:-1])

        # ----- Block 2: Upcast-Min of the candidate weights.
        combined = subtree_min(parent, groups, candidate)
        acc.charge_awake(has_children, starts[1] + up_receive_round)
        acc.charge_awake(nonroot, starts[1] + up_receive_round + 1)
        acc.charge_up_messages(nonroot, parent, _scalar_bits(combined))

        # ----- Block 3: roots draw coins, broadcast (MOE|0, coin, halt).
        coin_draw = np.zeros(n, dtype=np.int64)
        for idx in np.nonzero(is_root)[0].tolist():
            coin_draw[idx] = HEADS if rngs[idx].random() < 0.5 else TAILS
        frag_moe = combined[root_idx]
        moe_weight = np.where(frag_moe == INT_NOTHING, 0, frag_moe)
        coin = coin_draw[root_idx]
        if adaptive:
            halt = frag_moe == INT_NOTHING
        else:
            halt = np.zeros(n, dtype=bool)
        # (moe|0, coin, halt): coin and halt are 0/1 ints, 4 bits each.
        pb3 = TUPLE_OVERHEAD + int_field_bits(moe_weight) + 8
        acc.charge_awake(nonroot, starts[2] + down_receive_round)
        acc.charge_awake(has_children, starts[2] + down_receive_round + 1)
        acc.charge_down_messages(has_children, child_count, nonroot, pb3)
        if bool(halt.all()):
            next_block_start = starts[3]
            break
        if bool(halt.any()):  # pragma: no cover - impossible when connected
            raise RuntimeError(
                "halt flag differs across fragments; graph is disconnected"
            )

        # ----- Block 4: announce (fragment, coin, MOE weight); find u_T.
        acc.charge_awake(None, starts[3] + n)
        pb4 = (
            TUPLE_OVERHEAD
            + int_field_bits(frag)
            + 4
            + int_field_bits(moe_weight)
        )
        acc.charge_side_exchange(pb4)
        owner_edge, owner_valid = owner_edges(g, frag, moe_weight, coin)

        # ----- Block 5: Upcast-Min of the validity bit.
        valid_combined = subtree_min(parent, groups, owner_valid)
        acc.charge_awake(has_children, starts[4] + up_receive_round)
        acc.charge_awake(nonroot, starts[4] + up_receive_round + 1)
        acc.charge_up_messages(nonroot, parent, _scalar_bits(valid_combined))

        # ----- Block 6: broadcast the validity bit back down.
        valid_bit = valid_combined[root_idx]
        pb6 = _scalar_bits(valid_bit)
        acc.charge_awake(nonroot, starts[5] + down_receive_round)
        acc.charge_awake(has_children, starts[5] + down_receive_round + 1)
        acc.charge_down_messages(has_children, child_count, nonroot, pb6)

        fragment_merging = (coin == TAILS) & (valid_bit == 1)
        merge_edge = np.where(
            fragment_merging & (owner_edge >= 0) & (owner_valid == 1),
            owner_edge,
            -1,
        )

        # ----- Block 7: merge announce (fragment, level, merging?).
        acc.charge_awake(None, starts[6] + n)
        pb7 = (
            TUPLE_OVERHEAD
            + int_field_bits(frag)
            + int_field_bits(level)
            + 4
        )
        acc.charge_side_exchange(pb7)

        # Re-rooted labels for all merging nodes (blocks 8-9 semantics).
        new_level, new_frag, new_parent, new_parent_edge, path_mask = (
            reroot_merging_fragments(
                g,
                parent,
                parent_edge,
                frag,
                level,
                groups,
                fragment_merging,
                merge_edge,
            )
        )

        # ----- Block 8: up pass — only merging nodes wake; path nodes
        # with an old parent send (NEW-LEVEL, NEW-FRAGMENT) upward.
        m_children = fragment_merging & has_children
        m_nonroot = fragment_merging & nonroot
        acc.charge_awake(m_children, starts[7] + up_receive_round)
        acc.charge_awake(m_nonroot, starts[7] + up_receive_round + 1)
        pb_merge = np.where(
            path_mask,
            TUPLE_OVERHEAD
            + int_field_bits(new_level)
            + int_field_bits(new_frag),
            0,
        )
        acc.charge_up_messages(path_mask & nonroot, parent, pb_merge)

        # ----- Block 9: down pass — every merging node with old children
        # forwards its (by now known) new labels to them.
        acc.charge_awake(m_nonroot, starts[8] + down_receive_round)
        acc.charge_awake(m_children, starts[8] + down_receive_round + 1)
        pb9 = np.where(
            fragment_merging,
            TUPLE_OVERHEAD
            + int_field_bits(new_level)
            + int_field_bits(new_frag),
            0,
        )
        heard9 = pb9[parent]
        acc.charge_down_messages(
            m_children, child_count, m_nonroot, pb9, receiver_bits=heard9
        )

        # Commit the merge.
        frag[fragment_merging] = new_frag[fragment_merging]
        level[fragment_merging] = new_level[fragment_merging]
        parent[fragment_merging] = new_parent[fragment_merging]
        parent_edge[fragment_merging] = new_parent_edge[fragment_merging]

        next_block_start = starts[8] + span
        acc.check_limits()

    # ------------------------------------------------------------------
    # Outputs: per-node MST edge sets + final LDT labels.
    # ------------------------------------------------------------------
    tree_weights: List[List[int]] = [[] for _ in range(n)]
    children_ports: List[List[int]] = [[] for _ in range(n)]
    parent_port: List[Optional[int]] = [None] * n
    for child in np.nonzero(parent >= 0)[0].tolist():
        up_edge = int(parent_edge[child])
        par = int(parent[child])
        w = int(g.weight[up_edge])
        parent_port[child] = int(g.port[up_edge])
        tree_weights[child].append(w)
        children_ports[par].append(int(g.port[g.rev[up_edge]]))
        tree_weights[par].append(w)

    node_results: Dict[int, MSTNodeOutput] = {}
    frag_list = frag.tolist()
    level_list = level.tolist()
    for idx, node_id in enumerate(ids.tolist()):
        node_results[node_id] = MSTNodeOutput(
            node_id=node_id,
            mst_weights=frozenset(tree_weights[idx]),
            fragment_id=frag_list[idx],
            level=level_list[idx],
            phases=phases_run,
            parent_port=parent_port[idx],
            children_ports=frozenset(children_ports[idx]),
        )

    acc.check_limits()
    return SimulationResult(node_results=node_results, metrics=acc.finalize())
