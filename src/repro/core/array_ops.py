"""Vectorized ``Randomized-MST`` over the array simulation backend.

This module re-executes the exact phase plan of
:mod:`repro.core.mst_randomized` — nine Transmission-Schedule blocks per
phase — but instead of advancing one coroutine per node it computes each
block's effect on *all* nodes with numpy kernels:

* fragment roots / levels / parent pointers are int arrays over the
  node index (sorted-ID order, matching the coroutine engine); a
  fragment is named by its root's node ID;
* ``Transmit-Adjacent`` blocks are a single gather over the CSR directed
  edge arrays of :class:`repro.sim.array_engine.ArrayGraph`;
* ``Upcast-Min`` is pointer doubling (:func:`subtree_min`): each phase
  builds one :func:`ancestor_jumps` table, whose entry ``k`` folds
  subtree minima ``2**k`` hops up parent pointers, so a forest of depth
  ``d`` takes ``ceil(log2(d + 1))`` vector steps, not one per level;
* MOE selection is an edge-mask + per-source scatter (:func:`owner_edges`);
* ``Merging-Fragments`` re-roots each tails fragment with no per-level
  or per-hop loop (:func:`reroot_merging_fragments`): one scatter
  reverses the ``u_T`` → old-root path, and every off-path node finds
  its nearest path ancestor by pointer jumping, squaring once per table
  entry — reproducing the up/down passes of :mod:`repro.core.merging`
  without per-node message flow.

Each phase is charged to a :class:`repro.sim.array_engine.BlockAccountant`
once, whole, in the closed form the Transmission-Schedule gives: its
awake rounds per node, the summed payload bits of its three side
exchanges, three upcasts and three broadcasts, and one CONGEST check
against its largest payload (every receiver of every block is provably
awake in the sending round, so nothing is ever lost under the perfect
channel — the coroutine engine's metrics confirm 0 losses on every
Randomized-MST run).  Payload sizes come from per-graph tables: a
fragment ID is its root's node ID, so its bit size is a gather through
the root index; levels are below ``n``; a validity bit is 0, 1 or
``None``.  Only the MOE candidate weights are sized afresh each phase,
with one :func:`~repro.sim.array_engine.int_field_bits` call.  The
result is **byte-identical** per-node
:class:`~repro.sim.metrics.NodeMetrics` and
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

import numpy as np

from repro.sim.array_engine import (
    ArrayGraph,
    BlockAccountant,
    NONE_BITS,
    TUPLE_OVERHEAD,
    int_field_bits,
)
from repro.graphs import INT_BOUND
from repro.sim.capabilities import validate_array_sim_kwargs
from repro.sim.engine import SimulationResult

from .mst_randomized import HEADS, TAILS, MSTNodeOutput, randomized_phase_count
from .schedule import block_span

#: Sentinel for :data:`repro.core.toolbox.NOTHING` inside int64 arrays.
#: Every accepted weight lies below it, so minima ignore it naturally (it
#: is the identity of ``min``), matching ``min_merge``; payload sizing
#: maps it back to ``None`` (3 bits).
INT_NOTHING = INT_BOUND


def ancestor_jumps(parent: Any) -> List[Tuple[Any, Any]]:
    """Pointer-doubling table of a parent-pointer forest.

    Entry ``k`` is a pair ``(nodes, up)``: every node with an ancestor
    ``2**k`` hops up, and that ancestor.  Entry ``k + 1`` applies entry
    ``k``'s map twice, so a forest of depth ``d`` gets
    ``ceil(log2(d + 1))`` entries, and one table serves every tree
    reduction of a phase.
    """
    jumps: List[Tuple[Any, Any]] = []
    ancestor = parent
    nodes = np.nonzero(parent >= 0)[0]
    while nodes.size:
        up = ancestor[nodes]
        jumps.append((nodes, up))
        further = ancestor[up]
        keep = further >= 0
        nodes = nodes[keep]
        ancestor = np.full_like(parent, -1)
        ancestor[nodes] = further[keep]
    return jumps


def subtree_min(jumps: List[Tuple[Any, Any]], values: Any) -> Any:
    """Per-node minimum over its fragment subtree (``Upcast-Min`` result).

    ``jumps`` is :func:`ancestor_jumps` of the current trees.  After
    entry ``k`` a node holds the minimum over its descendants fewer than
    ``2**(k + 1)`` hops down, so ``combined[v]`` ends as the minimum of
    ``values`` over ``v``'s subtree: the value ``v`` sends up in the
    coroutine engine, and at roots the fragment aggregate.
    """
    combined = values.copy()
    for nodes, up in jumps:
        np.minimum.at(combined, up, combined[nodes])
    return combined


def owner_edges(g: ArrayGraph, outgoing: Any, moe_weight: Any, coin: Any):
    """Locate each fragment's MOE owner ``u_T`` and its validity bit.

    A node owns its fragment's MOE when one of its ports carries exactly
    the broadcast MOE weight *and* leads outside the fragment (the
    directed-edge mask ``outgoing``; weights are globally distinct, so at
    most one directed edge per fragment matches).  Validity follows the
    paper's star rule: tails here, heads there.  Returns ``(owner_edge,
    owner_valid)`` per node, ``-1`` / :data:`INT_NOTHING` for non-owners.
    """
    n = g.n
    own = (
        (moe_weight[g.src] != 0) & (g.weight == moe_weight[g.src]) & outgoing
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
    level: Any,
    jumps: List[Tuple[Any, Any]],
    root: Any,
    merging: Any,
    path: Any,
    merge_edge: Any,
):
    """Compute the post-merge labels of every node.

    Mirrors the up/down passes of :func:`repro.core.merging
    .merging_fragments`: each ``u_T`` (with ``merge_edge >= 0``) anchors
    at its heads neighbour; its ancestor chain up to the old root
    (``path``, the block-8 path) reverses its parent pointers; every
    other merging node keeps its pointers and re-levels from its parent
    (the block-9 down pass).  A fragment is named by its root's node ID,
    so ``root`` (each node's root index) carries the label.  No step
    walks a tree level or a path hop:

    * each path node ``c`` with an old parent becomes that parent's new
      parent, in one scatter;
    * a merging node takes its heads fragment's root through its old
      root;
    * a merging node ``v`` with nearest path ancestor ``a`` (``v`` itself
      on the path) ends at level ``level[heads] + 1 + level[u_T] -
      2 * level[a] + level[v]``, and ``a`` comes from pointer jumping,
      squaring once per entry of the phase's ``jumps`` table.

    Returns ``(new_level, new_root, new_parent, new_parent_edge)``;
    nodes outside merging fragments keep their current values.
    """
    u_t = np.nonzero(merge_edge >= 0)[0]
    heads = g.dst[merge_edge[u_t]]

    new_parent = parent.copy()
    new_parent_edge = parent_edge.copy()
    climbers = np.nonzero(path & (parent >= 0))[0]
    tops = parent[climbers]
    new_parent[tops] = climbers
    new_parent_edge[tops] = g.rev[parent_edge[climbers]]
    new_parent[u_t] = heads
    new_parent_edge[u_t] = merge_edge[u_t]

    # Per merging fragment, indexed by its old root: the heads fragment's
    # root and level[heads] + 1 + level[u_T].
    heads_root = np.zeros_like(root)
    base_level = np.zeros_like(level)
    roots = root[u_t]
    heads_root[roots] = root[heads]
    base_level[roots] = level[heads] + 1 + level[u_t]

    # Path nodes and non-merging nodes are fixed points; the others step
    # to their parent.  2**len(jumps) exceeds the depth, so squaring once
    # per entry lands every merging node on its nearest path ancestor.
    anchor = np.where(path | ~merging, np.arange(g.n), parent)
    for _ in jumps:
        anchor = anchor[anchor]

    new_root = np.where(merging, heads_root[root], root)
    new_level = np.where(
        merging, base_level[root] - 2 * level[anchor] + level, level
    )
    return new_level, new_root, new_parent, new_parent_edge


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
    :func:`repro.sim.capabilities.validate_array_sim_kwargs`).
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

    # State arrays (node index = rank of the node ID in sorted order).  A
    # fragment is named by its root's ID; ``root`` holds the root's index.
    root = np.arange(n)
    level = np.zeros(n, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    parent_edge = np.full(n, -1, dtype=np.int64)

    # Payload field sizes by table: fragment IDs are node IDs, levels are
    # below n, and a validity bit is 0, 1 (4 bits each) or None.
    id_bits = int_field_bits(ids)
    level_bits = int_field_bits(np.arange(n))

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
        child_count = np.bincount(parent + 1, minlength=n + 1)[1:]
        has_children = child_count > 0
        jumps = ancestor_jumps(parent)
        frag_bits = id_bits[root]

        # ----- Block 1: neighbor_refresh — (fragment, level) on all ports.
        pb1 = TUPLE_OVERHEAD + frag_bits + level_bits[level]

        # Local MOE candidates: lightest incident edge leaving the fragment.
        outgoing = root[g.dst] != root[g.src]
        edge_weight = np.where(outgoing, g.weight, INT_NOTHING)
        candidate = np.minimum.reduceat(edge_weight, g.indptr[:-1])

        # ----- Block 2: Upcast-Min of the candidate weights.
        combined = subtree_min(jumps, candidate)
        no_moe = combined == INT_NOTHING
        weight_bits = int_field_bits(combined)
        pb2 = np.where(no_moe, NONE_BITS, weight_bits)

        # ----- Block 3: roots draw coins, broadcast (MOE|0, coin, halt).
        # Each root draws once from its own generator, in ascending index
        # order, then one vector compare maps the draws to coins: the
        # RNG-parity contract with the coroutine engine.
        roots = np.nonzero(is_root)[0]
        draws = np.array([rngs[idx].random() for idx in roots.tolist()])
        coin_draw = np.zeros(n, dtype=np.int64)
        coin_draw[roots] = np.where(draws < 0.5, HEADS, TAILS)
        moe_weight = np.where(no_moe, 0, combined)[root]
        # A missing MOE is sent as 0, a 4-bit field.
        moe_bits = np.where(no_moe, 4, weight_bits)[root]
        coin = coin_draw[root]
        # (moe|0, coin, halt): coin and halt are 0/1 ints, 4 bits each.
        pb3 = TUPLE_OVERHEAD + moe_bits + 8

        if adaptive and bool(no_moe[roots].all()):
            # Every fragment halts after block 3: charge blocks 1-3.
            acc.charge_awake(starts, level, nonroot, has_children)
            acc.charge_side_exchange([pb1])
            acc.charge_up_messages(parent, level, [nonroot], [pb2])
            acc.charge_down_messages(
                parent, level, child_count, [has_children], [pb3]
            )
            break
        if adaptive and bool(no_moe[roots].any()):  # pragma: no cover
            raise RuntimeError(
                "halt flag differs across fragments; graph is disconnected"
            )

        # ----- Block 4: announce (fragment, coin, MOE weight); find u_T.
        pb4 = TUPLE_OVERHEAD + frag_bits + 4 + moe_bits
        owner_edge, owner_valid = owner_edges(g, outgoing, moe_weight, coin)

        # ----- Block 5: Upcast-Min of the validity bit.
        valid_combined = subtree_min(jumps, owner_valid)
        pb5 = np.where(valid_combined == INT_NOTHING, NONE_BITS, 4)

        # ----- Block 6: broadcast the validity bit back down.
        valid_bit = valid_combined[root]
        pb6 = pb5[root]

        fragment_merging = (coin == TAILS) & (valid_bit == 1)
        # Weights are distinct, so a merging fragment has exactly one MOE
        # owner u_T, and block 5's validity minimum is 1 exactly at u_T
        # and its ancestors: the path the merge reverses.
        path = fragment_merging & (valid_combined == 1)
        merge_edge = np.where(
            fragment_merging & (owner_edge >= 0) & (owner_valid == 1),
            owner_edge,
            -1,
        )

        # ----- Block 7: merge announce (fragment, level, merging?).
        pb7 = pb1 + 4

        # Re-rooted labels for all merging nodes (blocks 8-9 semantics).
        new_level, new_root, new_parent, new_parent_edge = (
            reroot_merging_fragments(
                g,
                parent,
                parent_edge,
                level,
                jumps,
                root,
                fragment_merging,
                path,
                merge_edge,
            )
        )

        # ----- Blocks 8-9: only merging nodes wake.  Path nodes with an
        # old parent send (NEW-LEVEL, NEW-FRAGMENT) up, and every merging
        # node with old children forwards its new labels down.
        pb_merge = TUPLE_OVERHEAD + level_bits[new_level] + id_bits[new_root]

        acc.charge_awake(starts, level, nonroot, has_children, fragment_merging)
        acc.charge_side_exchange([pb1, pb4, pb7])
        acc.charge_up_messages(
            parent, level, [nonroot, nonroot, path & nonroot], [pb2, pb5, pb_merge]
        )
        acc.charge_down_messages(
            parent,
            level,
            child_count,
            [has_children, has_children, fragment_merging & has_children],
            [pb3, pb6, pb_merge],
        )

        # Commit the merge.
        root, level, parent, parent_edge = (
            new_root,
            new_level,
            new_parent,
            new_parent_edge,
        )

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
    frag_list = ids[root].tolist()
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
