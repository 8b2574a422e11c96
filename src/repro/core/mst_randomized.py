"""``Randomized-MST`` — the paper's awake-optimal randomized algorithm (§2.2).

A synchronous GHS/Borůvka variant in the sleeping model.  Each phase:

Step (i) — find and restrict MOEs:
    1. ``neighbor_refresh`` — every node learns its neighbours' current
       fragment IDs (and levels), so it can identify outgoing edges and its
       local MOE candidate.
    2. ``upcast_min`` — the fragment root learns the fragment's minimum
       outgoing edge (MOE) weight (weights are distinct, so the weight
       *is* the edge's identity).
    3. ``fragment_broadcast`` — the root flips an unbiased coin and
       broadcasts ``(MOE weight, coin, halt?)``.  A fragment with no
       outgoing edge spans the whole graph; under adaptive termination its
       root raises ``halt`` and everyone finishes this phase.
    4. ``transmit_adjacent`` — every node announces ``(fragment ID, coin,
       fragment MOE weight)``.  The node ``u_T`` owning the fragment's MOE
       now sees the target fragment's coin and decides validity: the MOE is
       *valid* iff its own fragment flipped tails and the target flipped
       heads.  (This restriction turns every merge component into a star of
       tails fragments around one heads fragment — constant supergraph
       diameter, hence ``O(1)``-awake merging.)
    5. ``upcast_min`` + 6. ``fragment_broadcast`` — the validity bit travels
       from ``u_T`` to the root and back to all members, so every node
       knows whether its fragment merges this phase.

Step (ii) — ``merging_fragments`` (blocks 7–9, see
    :mod:`repro.core.merging`).

Differences from the paper's prose (constant factors only, documented in
DESIGN.md): co-schedulable broadcasts are combined into a single block
(e.g. the MOE broadcast, the coin broadcast, and the halt flag share block
3), and the kick-off ``Fragment-Broadcast("find the MOE")`` is subsumed by
the globally known phase plan — every node already knows which block does
what.

Complexities (Theorem 1): ``O(log n)`` awake w.h.p. — 9 blocks/phase with
``O(1)`` awake rounds each over ``O(log n)`` phases — and ``O(n log n)``
round complexity — each block spans ``2n + 2`` rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.sim import NodeContext

from .ldt import LDTState
from .merging import merging_fragments
from .schedule import BlockClock
from .toolbox import (
    NOTHING,
    fragment_broadcast,
    local_moe,
    neighbor_refresh,
    transmit_adjacent,
    upcast_min,
)

#: Blocks consumed by one phase of Randomized-MST.
PHASE_BLOCKS = 9

#: Coin values (the root flips; tails fragments merge into heads fragments).
TAILS, HEADS = 0, 1


@dataclass(frozen=True)
class MSTNodeOutput:
    """What each node knows at termination (the paper's output convention).

    Besides the incident MST edges, the node retains its final LDT labels —
    the tree is immediately usable for follow-up applications (broadcast,
    convergecast) via the ``O(1)``-awake toolbox procedures.
    """

    node_id: int
    #: Weights of this node's incident MST edges.
    mst_weights: FrozenSet[int]
    #: Final fragment ID (equal across nodes iff a single fragment remains).
    fragment_id: int
    #: Final level (hop distance to the final root).
    level: int
    #: Number of phases this node executed.
    phases: int
    #: Port towards the final tree parent (``None`` at the root).
    parent_port: Optional[int] = None
    #: Ports towards the final tree children.
    children_ports: FrozenSet[int] = frozenset()


def randomized_phase_count(n: int) -> int:
    """The paper's fixed phase budget: ``4 * ceil(log_{4/3} n) + 1``."""
    if n < 2:
        return 0
    return 4 * math.ceil(math.log(n) / math.log(4.0 / 3.0)) + 1


def randomized_mst_protocol(
    ctx: NodeContext,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
):
    """Protocol generator for one node running ``Randomized-MST``.

    Parameters
    ----------
    termination:
        ``"adaptive"`` (default): stop as soon as the fragment has no
        outgoing edge — on a connected graph that fragment is the whole
        graph, so every node halts in the same phase.  ``"fixed"``: run the
        paper's exact phase budget :func:`randomized_phase_count` with no
        early exit (the w.h.p. analysis applies to this mode).
    max_phases:
        Optional hard cap overriding the default budget (useful in tests).
    """
    output, _, _ = yield from randomized_mst_session(
        ctx, termination=termination, max_phases=max_phases
    )
    return output


def randomized_mst_session(
    ctx: NodeContext,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
):
    """Like :func:`randomized_mst_protocol`, but built for composition.

    Returns ``(output, ldt, clock)``: the final LDT state and the node's
    block clock, still globally aligned (every node consumed the same
    number of blocks, under both termination modes).  Follow-up protocols —
    e.g. repeated ``O(1)``-awake broadcasts over the freshly built MST —
    can keep ``yield from``-composing toolbox procedures on them; see
    ``examples/broadcast_application.py``.
    """
    if termination not in ("adaptive", "fixed"):
        raise ValueError(f"unknown termination mode {termination!r}")
    adaptive = termination == "adaptive"

    ldt = LDTState.singleton(ctx.node_id)
    phase_budget = max_phases if max_phases is not None else randomized_phase_count(ctx.n)
    phases_run = 0
    clock = BlockClock(ctx.n)

    if ctx.n == 1 or not ctx.ports:
        return _output(ctx, ldt, phases_run), ldt, clock

    while phases_run < phase_budget:
        phases_run += 1
        if ctx.obs is not None:
            ctx.count("algo.phases", algorithm="randomized")

        with ctx.span("phase", phases_run):
            # Block 1: learn neighbours' fragments; compute local MOE
            # candidate.
            with ctx.span("block:neighbor_refresh"):
                yield from neighbor_refresh(ctx, ldt, clock.take())
            candidate = local_moe(ctx, ldt)
            candidate_weight = candidate[0] if candidate is not NOTHING else NOTHING

            # Block 2: fragment MOE = min of candidates, known at the root.
            with ctx.span("block:upcast_moe"):
                fragment_moe = yield from upcast_min(
                    ctx, ldt, clock.take(), candidate_weight
                )

            # Block 3: root broadcasts (MOE weight | 0, coin, halt?).
            if ldt.is_root:
                halt = 1 if (adaptive and fragment_moe is NOTHING) else 0
                coin = HEADS if ctx.rng.random() < 0.5 else TAILS
                message = (fragment_moe if fragment_moe is not NOTHING else 0, coin, halt)
            else:
                message = NOTHING
            with ctx.span("block:broadcast_coin"):
                moe_weight, coin, halt = yield from fragment_broadcast(
                    ctx, ldt, clock.take(), message
                )
            if halt:
                if ctx.obs is not None:
                    _probe_phase_end(ctx, ldt, phases_run)
                break

            # Block 4: announce (fragment, coin, MOE weight); the MOE owner
            # learns the target fragment's coin and decides validity.
            with ctx.span("block:transmit_adjacent"):
                inbox = yield from transmit_adjacent(
                    ctx,
                    ldt,
                    clock.take(),
                    dict.fromkeys(ctx.ports, (ldt.fragment_id, coin, moe_weight)),
                )
            owner_port: Optional[int] = None
            owner_valid = NOTHING
            owner_target: Optional[int] = None
            if moe_weight:
                for port, (nbr_fragment, nbr_coin, _) in inbox.items():
                    if (
                        ctx.port_weights[port] == moe_weight
                        and nbr_fragment != ldt.fragment_id
                    ):
                        owner_port = port
                        owner_target = nbr_fragment
                        owner_valid = (
                            1 if (coin == TAILS and nbr_coin == HEADS) else 0
                        )

            # Blocks 5-6: validity bit up to the root and back to everyone.
            with ctx.span("block:upcast_valid"):
                valid_bit = yield from upcast_min(ctx, ldt, clock.take(), owner_valid)
            with ctx.span("block:broadcast_valid"):
                valid_bit = yield from fragment_broadcast(
                    ctx,
                    ldt,
                    clock.take(),
                    valid_bit if ldt.is_root else NOTHING,
                )

            fragment_merging = coin == TAILS and valid_bit == 1
            merge_port = owner_port if (fragment_merging and owner_port is not None and owner_valid == 1) else None

            if ctx.obs is not None:
                ctx.probe(
                    "merge_decision",
                    phase=phases_run,
                    fragment=ldt.fragment_id,
                    coin=coin,
                    moe=moe_weight,
                    merging=1 if fragment_merging else 0,
                    owner=1 if owner_port is not None else 0,
                    valid=owner_valid if owner_port is not None else None,
                    target=owner_target,
                )

            # Blocks 7-9: merge tails fragments into their heads fragments
            # (:func:`merging_fragments` opens one span per block).
            yield from merging_fragments(
                ctx,
                ldt,
                clock,
                merge_port=merge_port,
                fragment_merging=fragment_merging,
            )
            if ctx.obs is not None:
                _probe_phase_end(ctx, ldt, phases_run)

    return _output(ctx, ldt, phases_run), ldt, clock


def _probe_phase_end(ctx: NodeContext, ldt: LDTState, phase: int) -> None:
    """Snapshot the node's LDT labels for phase-boundary invariant monitors.

    Shared by both MST algorithms, whose call sites guard it with
    ``if ctx.obs is not None``: unobserved runs never build the
    snapshot's sorted tuples (see :meth:`repro.sim.node.NodeContext.probe`).
    """
    ctx.probe(
        "phase_end",
        phase=phase,
        fragment=ldt.fragment_id,
        level=ldt.level,
        parent_port=ldt.parent_port,
        children_ports=tuple(sorted(ldt.children_ports)),
        tree_weights=tuple(
            sorted(ctx.port_weights[port] for port in ldt.tree_ports())
        ),
    )


def _output(ctx: NodeContext, ldt: LDTState, phases: int) -> MSTNodeOutput:
    weights = frozenset(ctx.port_weights[port] for port in ldt.tree_ports())
    return MSTNodeOutput(
        node_id=ctx.node_id,
        mst_weights=weights,
        fragment_id=ldt.fragment_id,
        level=ldt.level,
        phases=phases,
        parent_port=ldt.parent_port,
        children_ports=frozenset(ldt.children_ports),
    )
