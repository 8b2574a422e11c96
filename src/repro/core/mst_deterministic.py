"""``Deterministic-MST`` — the paper's awake-optimal deterministic algorithm
(Section 2.3, Theorem 2).

Replaces ``Randomized-MST``'s coin-flip restriction with a deterministic
combination of (a) MOE sparsification — every fragment keeps at most 3
*valid* incoming MOEs (token selection, :mod:`repro.core.moe`) and keeps its
outgoing MOE only if the target selected it — and (b) a 5-colouring of the
resulting degree-≤4 fragment supergraph ``G'``
(:mod:`repro.core.coloring`).  Blue fragments merge into an arbitrary
(necessarily non-Blue) ``G'`` neighbour; Blue fragments isolated in ``G'``
("singletons") then merge along their original outgoing MOE in a second
merging pass.

Phase layout (every node advances its block clock identically):

=========  =============================================================
Blocks     Purpose
=========  =============================================================
1          ``neighbor_refresh`` — fragments/levels of all neighbours
2          ``upcast_min`` — fragment MOE weight to the root
3          ``fragment_broadcast`` — MOE weight (+ halt flag) to everyone
4          ``transmit_adjacent`` — announce ``(fragment, MOE weight)``;
           detects incoming-MOE edges and the outgoing-MOE owner
5–6        token selection of ≤3 valid incoming MOEs (up + down pass)
7          ``transmit_adjacent`` — selection verdicts back to MOE owners
8          ``upcast_aggregate`` — NBR-INFO (≤4 entries) to the root
           (replaces the paper's ∞/−∞ ``Upcast-Min`` encoding with a
           direct capped list — same bits, simpler bookkeeping)
9          ``fragment_broadcast`` — NBR-INFO to every member
10..9+5N   ``Fast-Awake-Coloring`` (N stages × 5 blocks)
+3         ``Merging-Fragments`` #1 — Blue non-singletons merge
+1         ``transmit_adjacent`` refresh (the paper's explicit update)
+3         ``Merging-Fragments`` #2 — Blue singletons merge via their MOE
=========  =============================================================

Per phase: ``O(1)`` awake rounds per node and ``(16 + 5N)(2n + 2) =
O(nN)`` rounds, matching Lemma 7.  The paper's fixed phase budget
``⌈log_{240000/239999} n⌉ + 240000`` is astronomically conservative (the
analysis guarantees only that ≥ 1/240000 of fragments disappear per
phase); with adaptive termination the algorithm stops as soon as one
fragment remains — at most ``n - 1`` phases, in practice ``O(log n)`` —
without changing any message or wake-up structure.
"""

from __future__ import annotations

import math
from typing import Optional, Set

from repro.sim import NodeContext

from .coloring import BLUE, fast_awake_coloring
from .logstar import logstar_coloring
from .ldt import LDTState
from .merging import merging_fragments
from .moe import DIR_IN, DIR_OUT, merge_nbr_info, select_incoming_moes
from .mst_randomized import _output, _probe_phase_end
from .schedule import BlockClock
from .toolbox import (
    NOTHING,
    fragment_broadcast,
    local_moe,
    neighbor_refresh,
    transmit_adjacent,
    upcast_aggregate,
    upcast_min,
)

#: Fixed (non-coloring) blocks consumed per phase.
PHASE_FIXED_BLOCKS = 16

#: The paper's pessimistic contraction base.
CONTRACTION_BASE = 240000 / 239999


def deterministic_phase_count(n: int) -> int:
    """The paper's fixed phase budget: ``⌈log_{240000/239999} n⌉ + 240000``.

    Provided for completeness/documentation; it is far too conservative to
    execute literally (millions of phases even for tiny ``n``), which is why
    the protocol runs only with adaptive termination.
    """
    if n < 2:
        return 0
    return math.ceil(math.log(n) / math.log(CONTRACTION_BASE)) + 240000


def deterministic_blocks_per_phase(max_id: int) -> int:
    """Blocks per phase: 16 fixed + 5 per colouring stage."""
    return PHASE_FIXED_BLOCKS + 5 * max_id


def deterministic_mst_protocol(
    ctx: NodeContext,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
    coloring: str = "fast-awake",
):
    """Protocol generator for one node running ``Deterministic-MST``.

    Only ``termination="adaptive"`` runs: it stops when the fragment spans
    the graph; the budget defaults to ``n`` phases (each phase with ≥ 2
    fragments removes at least one Blue fragment, so ``n`` always
    suffices).  ``"fixed"`` (the paper's :func:`deterministic_phase_count`,
    over 240,000 phases) is rejected like any unknown mode.
    """
    if termination != "adaptive":
        raise ValueError(
            "Deterministic-MST runs only with termination='adaptive', "
            f"not {termination!r}"
        )
    if coloring not in ("fast-awake", "log-star"):
        raise ValueError(f"unknown coloring subroutine {coloring!r}")

    ldt = LDTState.singleton(ctx.node_id)
    phase_budget = max(1, ctx.n) if max_phases is None else max_phases
    phases_run = 0

    if ctx.n == 1 or not ctx.ports:
        return _output(ctx, ldt, phases_run)

    clock = BlockClock(ctx.n)
    while phases_run < phase_budget:
        phases_run += 1
        if ctx.obs is not None:
            ctx.count("algo.phases", algorithm="deterministic")

        with ctx.span("phase", phases_run):
            # --------------------------------------------------------
            # Step (i): find MOEs and sparsify them.
            # --------------------------------------------------------

            # Block 1: refresh neighbour fragments/levels.
            with ctx.span("block:neighbor_refresh"):
                yield from neighbor_refresh(ctx, ldt, clock.take())
            candidate = local_moe(ctx, ldt)
            candidate_weight = candidate[0] if candidate is not NOTHING else NOTHING

            # Block 2: fragment MOE to the root.
            with ctx.span("block:upcast_moe"):
                fragment_moe = yield from upcast_min(
                    ctx, ldt, clock.take(), candidate_weight
                )

            # Block 3: broadcast MOE weight and halt flag.
            if ldt.is_root:
                halt = 1 if fragment_moe is NOTHING else 0
                message = (
                    fragment_moe if fragment_moe is not NOTHING else 0,
                    halt,
                )
            else:
                message = NOTHING
            with ctx.span("block:broadcast_moe"):
                moe_weight, halt = yield from fragment_broadcast(
                    ctx, ldt, clock.take(), message
                )
            if halt:
                if ctx.obs is not None:
                    _probe_phase_end(ctx, ldt, phases_run)
                break

            # Block 4: announce (fragment, MOE weight); detect incoming MOEs
            # and whether we own our fragment's outgoing MOE.
            with ctx.span("block:announce_moe"):
                inbox = yield from transmit_adjacent(
                    ctx,
                    ldt,
                    clock.take(),
                    dict.fromkeys(ctx.ports, (ldt.fragment_id, moe_weight)),
                )
            owner_port: Optional[int] = None
            incoming_ports = []
            for port, (nbr_fragment, nbr_moe) in inbox.items():
                if nbr_fragment == ldt.fragment_id:
                    continue
                if nbr_moe == ctx.port_weights[port]:
                    incoming_ports.append(port)
                if moe_weight and ctx.port_weights[port] == moe_weight:
                    owner_port = port

            # Blocks 5-6: token-select at most 3 valid incoming MOEs.
            with ctx.span("block:select_moes"):
                selected = yield from select_incoming_moes(
                    ctx, ldt, clock, incoming_ports
                )

            # Block 7: tell each incoming MOE's owner whether it was selected.
            verdicts = {port: (1 if port in selected else 0) for port in incoming_ports}
            with ctx.span("block:moe_verdicts"):
                inbox = yield from transmit_adjacent(ctx, ldt, clock.take(), verdicts)
            valid_out = owner_port is not None and inbox.get(owner_port) == 1

            # Block 8: NBR-INFO — the ≤4 valid MOEs of this fragment — to the
            # root; Block 9: back to every member.
            entries = [
                (ldt.neighbor_fragment[port], ctx.port_weights[port], DIR_IN)
                for port in selected
            ]
            if valid_out:
                entries.append(
                    (ldt.neighbor_fragment[owner_port], moe_weight, DIR_OUT)
                )
            my_entries = tuple(sorted(entries)) if entries else NOTHING
            with ctx.span("block:upcast_nbr_info"):
                aggregated = yield from upcast_aggregate(
                    ctx, ldt, clock.take(), my_entries, merge_nbr_info
                )
            with ctx.span("block:broadcast_nbr_info"):
                nbr_info = yield from fragment_broadcast(
                    ctx,
                    ldt,
                    clock.take(),
                    (aggregated if aggregated is not NOTHING else ())
                    if ldt.is_root
                    else NOTHING,
                )

            # --------------------------------------------------------
            # Step (ii): colour the supergraph, then merge Blue fragments.
            # --------------------------------------------------------
            # Probe snapshots sort; build them only for observed runs.
            if ctx.obs is not None:
                ctx.probe(
                    "moe_sparsify",
                    phase=phases_run,
                    fragment=ldt.fragment_id,
                    nbr_info=tuple(nbr_info),
                    selected=tuple(
                        sorted(
                            (ldt.neighbor_fragment[port], ctx.port_weights[port])
                            for port in selected
                        )
                    ),
                )
            neighbor_fragments = {entry[0] for entry in nbr_info}
            gprime_ports: Set[int] = set(selected)
            if valid_out:
                gprime_ports.add(owner_port)

            with ctx.span("block:coloring"):
                if coloring == "fast-awake":
                    own_color, _nbr_colors = yield from fast_awake_coloring(
                        ctx, ldt, clock, neighbor_fragments, gprime_ports
                    )
                else:
                    # Corollary 1: Cole–Vishkin colouring in O(log* N) awake
                    # rounds and O(n log* N) rounds per phase, independent
                    # of N.
                    own_color, _nbr_colors = yield from logstar_coloring(
                        ctx,
                        ldt,
                        clock,
                        neighbor_fragments,
                        gprime_ports,
                        out_port=owner_port if valid_out else None,
                    )

            if ctx.obs is not None:
                ctx.probe(
                    "coloring",
                    phase=phases_run,
                    fragment=ldt.fragment_id,
                    color=own_color,
                    nbr_colors=tuple(sorted(_nbr_colors.items())),
                    nbr_fragments=tuple(sorted(neighbor_fragments)),
                )

            # Merge #1: Blue fragments with G' neighbours merge into the
            # neighbour on their lightest valid MOE (canonical "arbitrary"
            # choice; every neighbour of a Blue fragment is non-Blue).
            merging_now = own_color == BLUE and bool(nbr_info)
            merge_port: Optional[int] = None
            if merging_now:
                chosen_weight = min(entry[1] for entry in nbr_info)
                for port in gprime_ports:
                    if ctx.port_weights[port] == chosen_weight:
                        merge_port = port
            with ctx.span("merge", 1):
                yield from merging_fragments(
                    ctx, ldt, clock, merge_port=merge_port, fragment_merging=merging_now
                )

            # The paper's explicit Transmit-Adjacent so singleton fragments
            # see their neighbours' post-merge fragments/levels.
            with ctx.span("block:refresh_after_merge"):
                yield from neighbor_refresh(ctx, ldt, clock.take())

            # Merge #2: Blue singletons merge along their original outgoing
            # MOE into whichever fragment now contains its far endpoint.
            merging_singleton = own_color == BLUE and not nbr_info
            singleton_port = (
                owner_port if (merging_singleton and owner_port is not None) else None
            )
            with ctx.span("merge", 2):
                yield from merging_fragments(
                    ctx,
                    ldt,
                    clock,
                    merge_port=singleton_port,
                    fragment_merging=merging_singleton,
                )
            if ctx.obs is not None:
                _probe_phase_end(ctx, ldt, phases_run)

    return _output(ctx, ldt, phases_run)
