"""``Fast-Awake-Coloring`` — 5-colouring the fragment supergraph (§2.3).

After MOE sparsification the supergraph ``G'`` (fragments as nodes, valid
MOEs as edges) has maximum degree 4.  The paper colours it greedily in
fragment-ID order with the 5-colour priority palette

    **Blue > Red > Orange > Black > Green**

over ``N`` *stages* (``N`` = the globally known upper bound on IDs).  In
stage ``i`` only the fragment whose ID is ``i`` — plus its ``G'``
neighbours — are awake; everyone else sleeps, so each node participates in
at most 5 stages (its own fragment's stage and those of at most 4
neighbours) and the awake cost stays ``O(1)`` per phase, while the round
cost is ``Θ(nN)`` per phase (the price of determinism the paper pays and
Corollary 1 trades away).

Stage layout (5 blocks; every node's clock advances by exactly
``5 * N`` blocks across the whole procedure):

=====  ======================  ===========================================
Block  Who is awake            Purpose
=====  ======================  ===========================================
sA     fragment ``i``          ``Upcast-Min`` of the chosen colour (every
                               member computes the same choice; the
                               convergecast mirrors the paper)
sB     fragment ``i``          ``Fragment-Broadcast`` of the colour
sC     fragment ``i`` + nbrs   ``Transmit-Adjacent``: colour crosses the
                               valid-MOE edges (*Neighbor-Awareness* part 1)
sD     neighbours              ``Upcast-Min`` inside each neighbour
sE     neighbours              ``Fragment-Broadcast`` inside each neighbour
=====  ======================  ===========================================

The colour choice is the highest-priority colour not already taken by a
``G'`` neighbour — neighbours with smaller IDs coloured in earlier stages,
whose colours every member cached during those stages' sD/sE blocks.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from repro.sim import NodeContext

from .ldt import LDTState
from .schedule import BlockClock
from .toolbox import (
    NOTHING,
    fragment_broadcast,
    neighbor_awareness,
    upcast_min,
)

#: The palette, in decreasing priority.  Blue fragments merge away.
BLUE, RED, ORANGE, BLACK, GREEN = range(5)
PALETTE = (BLUE, RED, ORANGE, BLACK, GREEN)
COLOR_NAMES = {BLUE: "Blue", RED: "Red", ORANGE: "Orange", BLACK: "Black", GREEN: "Green"}

#: Blocks consumed per stage.
STAGE_BLOCKS = 5


def highest_priority_free_color(taken: Iterable[int]) -> int:
    """The paper's greedy rule: best colour not used by any neighbour."""
    taken_set = set(taken)
    for color in PALETTE:
        if color not in taken_set:
            return color
    raise RuntimeError(
        "no free colour — the supergraph degree exceeded 4, which the "
        "sparsification step is supposed to prevent"
    )


def fast_awake_coloring(
    ctx: NodeContext,
    ldt: LDTState,
    clock: BlockClock,
    neighbor_fragments: Set[int],
    gprime_ports: Set[int],
):
    """Run the colouring; returns ``(own colour, {nbr fragment: colour})``.

    Parameters
    ----------
    neighbor_fragments:
        Fragment IDs adjacent to this fragment in ``G'`` (from NBR-INFO —
        identical at every member of the fragment).
    gprime_ports:
        This node's ports that carry valid MOE edges (selected incoming
        ports, plus the outgoing MOE port if it was selected by its target).
    """
    nbr_colors: Dict[int, int] = {}
    own_color: Optional[int] = None

    stages = sorted(neighbor_fragments | {ldt.fragment_id})
    previous_stage = 0
    for stage in stages:
        clock.skip(STAGE_BLOCKS * (stage - previous_stage - 1))
        previous_stage = stage

        if stage == ldt.fragment_id:
            # sA + sB: agree on our colour (identical choice at every
            # member, convergecast + broadcast as in the paper).
            candidate = highest_priority_free_color(nbr_colors.values())
            agreed = yield from upcast_min(ctx, ldt, clock.take(), candidate)
            own_color = yield from fragment_broadcast(
                ctx, ldt, clock.take(), agreed if ldt.is_root else NOTHING
            )
            # sC-sE: Neighbor-Awareness — the colour crosses every valid
            # MOE edge and spreads inside each neighbouring fragment.
            yield from neighbor_awareness(
                ctx, ldt, clock, {port: own_color for port in gprime_ports}
            )
        else:
            # sA + sB happen inside the stage fragment.
            clock.skip(2)
            # sC-sE: learn the stage fragment's colour fragment-wide.
            color = yield from neighbor_awareness(ctx, ldt, clock)
            if color is NOTHING:
                raise RuntimeError(
                    f"node {ctx.node_id}: no colour heard from neighbour "
                    f"fragment {stage} — NBR-INFO and G' ports disagree"
                )
            nbr_colors[stage] = color

    clock.skip(STAGE_BLOCKS * (ctx.max_id - previous_stage))
    if own_color is None:  # pragma: no cover - stages always include our own
        raise RuntimeError(f"node {ctx.node_id} never coloured itself")
    return own_color, nbr_colors
