"""``Log-Star-Coloring`` — the Corollary 1 alternative to ``Fast-Awake-Coloring``.

The paper's remark after Theorem 2: the ``N``-stage colouring is the only
reason for the ``O(nN log n)`` round complexity; replacing it with a
classical ``O(log* n)`` distributed colouring yields ``O(log n log* n)``
awake time and ``O(n log n log* n)`` run time (Corollary 1).

This module implements that replacement on the valid-MOE supergraph ``G'``:

**Structure of G'.**  Every ``G'`` edge is the (valid) outgoing MOE of its
source fragment, so orienting each edge along its source's MOE gives every
fragment out-degree ≤ 1 — exactly the shape Cole–Vishkin's deterministic
coin tossing needs.  (As an undirected graph ``G'`` is in fact a forest:
MOE edges can only close mutual 2-cycles, which collapse to single
undirected edges.)

**Phase 1 — Cole–Vishkin reduction** (``cv_iterations(N)`` iterations, each
3 blocks): starting from the distinct fragment IDs, every fragment
repeatedly recolours to ``2i + bit_i(own)`` where ``i`` is the lowest bit
position in which its colour differs from its out-neighbour's (fragments
with no valid outgoing MOE use the virtual neighbour ``own XOR 1``).  Each
iteration shrinks ``b``-bit colours to ``O(log b)``-bit colours while
preserving properness along every out-edge — hence along every ``G'`` edge
— reaching the fixed point ``{0..5}`` after ``log* N + O(1)`` iterations.

**Phase 2 — greedy relabelling to the 5-colour priority palette** (6
stages of 5 blocks): colour classes ``0..5`` relabel in order; a fragment
picks the highest-priority palette colour not taken by an
already-relabelled neighbour (degree ≤ 4, so 5 colours suffice).  The
first class to act in each component takes **Blue**, and a fragment can
only avoid a colour its neighbour already holds — so Lemma 4's counting
(``#Red ≤ 4·#Blue``, …) and therefore the whole Deterministic-MST progress
analysis carry over unchanged.

Costs per invocation: ``O(log* N)`` awake rounds per node and
``(3·cv_iterations(N) + 33)·(2n+2) = O(n log* N)`` rounds — independent of
``N`` up to the iterated logarithm, which is the entire point.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.sim import NodeContext

from .coloring import STAGE_BLOCKS, highest_priority_free_color
from .ldt import LDTState
from .schedule import BlockClock
from .toolbox import (
    NOTHING,
    fragment_broadcast,
    neighbor_awareness,
    transmit_adjacent,
    upcast_min,
)

#: CV colours converge into {0 .. CV_FIXPOINT - 1}.
CV_FIXPOINT = 6


def cv_step(own: int, out_neighbor: Optional[int]) -> int:
    """One Cole–Vishkin recolouring: ``2i + bit_i(own)``.

    ``i`` is the lowest bit position where ``own`` and the out-neighbour's
    colour differ; without an out-neighbour the virtual colour
    ``own XOR 1`` is used (they differ in bit 0).
    """
    other = (own ^ 1) if out_neighbor is None else out_neighbor
    if other == own:
        raise ValueError(
            f"CV invariant broken: colour {own} equals the out-neighbour's"
        )
    difference = own ^ other
    i = (difference & -difference).bit_length() - 1
    return 2 * i + (own >> i & 1)


def cv_iterations(max_id: int) -> int:
    """Iterations until colours drawn from ``[0, max_id]`` fit in {0..5}.

    Computable by every node from the globally known ``N``, so all clocks
    agree on the schedule.  Grows as ``log* N``: 2 iterations suffice for
    ``N < 2^6``, 3 for ``N < 2^64``, ...
    """
    bound = max(2, max_id + 1)  # colours start as IDs in [1, N]
    iterations = 0
    while bound > CV_FIXPOINT:
        bits = max(1, (bound - 1).bit_length())
        bound = 2 * bits
        iterations += 1
    # One extra settling iteration: the bound arithmetic above is on
    # magnitudes; properness needs every fragment to take the final step.
    return iterations + 1


def _merge_capped_pairs(a, b):
    """Union of ``(fragment, value)`` pair tuples, capped by G' degree."""
    if a is NOTHING:
        return b
    if b is NOTHING:
        return a
    union = tuple(sorted(set(a) | set(b)))
    if len(union) > 4:
        raise RuntimeError(f"more than 4 G' neighbours reported: {union}")
    return union


def _collect_pairs(inbox):
    """Inbox of ``(fragment, value)`` pairs -> this node's sorted tuple."""
    if not inbox:
        return NOTHING
    return tuple(sorted(set(inbox.values())))


def logstar_coloring(
    ctx: NodeContext,
    ldt: LDTState,
    clock: BlockClock,
    neighbor_fragments: Set[int],
    gprime_ports: Set[int],
    out_port: Optional[int],
):
    """Colour the supergraph with the 5-colour priority palette in
    ``O(log* N)`` awake rounds; returns ``(own colour, {nbr frag: colour})``.

    Parameters match :func:`repro.core.coloring.fast_awake_coloring`, plus
    ``out_port`` — set only at the node owning the fragment's *valid*
    outgoing MOE (``None`` everywhere else).
    """
    n, max_id = ctx.n, ctx.max_id

    # ------------------------------------------------------------------
    # Phase 1: Cole–Vishkin iterations on the MOE orientation.
    # ------------------------------------------------------------------
    color = ldt.fragment_id
    for _ in range(cv_iterations(max_id)):
        # Block A: colours cross every G' edge; the OUT owner keeps the
        # colour arriving on its out-port.
        inbox = yield from transmit_adjacent(
            ctx, ldt, clock.take(), {port: color for port in gprime_ports}
        )
        heard_out = NOTHING
        if out_port is not None and out_port in inbox:
            heard_out = inbox[out_port]
        # Blocks B + C: out-neighbour colour to the root, new colour back.
        out_color = yield from upcast_min(ctx, ldt, clock.take(), heard_out)
        if ldt.is_root:
            message = cv_step(color, out_color if out_color is not NOTHING else None)
        else:
            message = NOTHING
        color = yield from fragment_broadcast(ctx, ldt, clock.take(), message)

    if not 0 <= color < CV_FIXPOINT:  # pragma: no cover - CV guarantee
        raise RuntimeError(f"CV did not converge: colour {color}")

    # ------------------------------------------------------------------
    # Interlude: learn every G' neighbour's CV class (one
    # Neighbor-Awareness), so each fragment knows which relabelling
    # stages to attend.
    # ------------------------------------------------------------------
    nbr_classes_list = yield from neighbor_awareness(
        ctx,
        ldt,
        clock,
        dict.fromkeys(gprime_ports, (ldt.fragment_id, color)),
        merge=_merge_capped_pairs,
        collect=_collect_pairs,
    )
    if nbr_classes_list is NOTHING:
        nbr_classes_list = ()
    nbr_class: Dict[int, int] = {frag: cls for frag, cls in nbr_classes_list}
    if set(nbr_class) != set(neighbor_fragments):
        raise RuntimeError(
            f"node {ctx.node_id}: CV class exchange saw {sorted(nbr_class)} "
            f"but NBR-INFO says {sorted(neighbor_fragments)}"
        )

    # ------------------------------------------------------------------
    # Phase 2: greedy relabelling, one stage per CV class.
    # ------------------------------------------------------------------
    own_final: Optional[int] = None
    nbr_final: Dict[int, int] = {}
    for stage in range(CV_FIXPOINT):
        attends = color == stage or stage in nbr_class.values()
        if not attends:
            clock.skip(STAGE_BLOCKS)
            continue
        if color == stage:
            candidate = highest_priority_free_color(nbr_final.values())
            agreed = yield from upcast_min(ctx, ldt, clock.take(), candidate)
            own_final = yield from fragment_broadcast(
                ctx, ldt, clock.take(), agreed if ldt.is_root else NOTHING
            )
            yield from neighbor_awareness(
                ctx,
                ldt,
                clock,
                dict.fromkeys(gprime_ports, (ldt.fragment_id, own_final)),
                merge=_merge_capped_pairs,
                collect=_collect_pairs,
            )
        else:
            clock.skip(2)
            stage_results = yield from neighbor_awareness(
                ctx,
                ldt,
                clock,
                merge=_merge_capped_pairs,
                collect=_collect_pairs,
            )
            for fragment, final in stage_results or ():
                nbr_final[fragment] = final

    if own_final is None:  # pragma: no cover - every fragment has a class
        raise RuntimeError(f"node {ctx.node_id} never relabelled")
    return own_final, nbr_final


def logstar_total_blocks(max_id: int) -> int:
    """Blocks one Log-Star-Coloring invocation consumes."""
    return 3 * cv_iterations(max_id) + 3 + STAGE_BLOCKS * CV_FIXPOINT
