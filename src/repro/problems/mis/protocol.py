"""``Sleeping-MIS`` — an ``O(log log n)``-awake randomized MIS protocol.

The second problem of the zoo, after the sibling result to the source
paper: Dufoulon, Moses Jr., Pandurangan, *"Distributed MIS in O(log log n)
Awake Complexity"* (arXiv 2204.08359).  Their key idea — and what this
protocol reproduces in measurable form — is that Luby-style MIS sampling
does not need ``Theta(log n)`` rounds of *awake* contention: by starting
the marking probability at ``2^{-ceil(log n / 2)}`` and squaring it every
phase (halving the exponent), ``O(log log n)`` phases suffice to bring
every neighbourhood's contention down to a constant, after which
``O(log log n)`` classic ``p = 1/2`` phases finish w.h.p.  Each phase
costs ``O(1)`` awake rounds, so the awake complexity is
``O(log log n)`` — exponentially below the ``Omega(log n / log log n)``
round lower bound for MIS, which only constrains *rounds*, not awake time.

Structure per phase (two Transmission-Schedule blocks, reusing
:func:`repro.core.toolbox.transmit_adjacent` on singleton LDTs — every
node is its own fragment; MIS never merges):

1. **Contend block** — marked nodes send ``(1, rank, id)`` on all ports
   (``rank`` is a fresh ``O(log n)``-bit per-phase coin; the ``(rank,
   id)`` pair is globally distinct).  In the *final* phase every
   still-undecided node sends ``(0, 0, id)`` too, so survivors take a
   census of their undecided neighbourhood.  All undecided nodes listen.
   A marked node **joins the MIS** iff no marked neighbour it heard has a
   smaller ``(rank, id)`` — two adjacent undecided nodes always hear each
   other, so joined nodes are never adjacent.
2. **Announce block** — joiners send ``("join", id)`` on all ports and
   terminate; undecided listeners that hear a join record the covering
   port, terminate as dominated, and never wake again.

After the fixed phase plan, survivors (w.h.p. an isolated few) run the
deterministic **final-slots stage**: node ``v`` wakes once at round
``base + v - 1``; before that it listens at the slots of its smaller-ID
neighbours from the final census and terminates dominated if one joins;
at its own slot, if still undominated, it joins and announces.  Slots are
globally distinct (IDs are unique), every survivor contended in the final
census, and smaller slots come first — so the stage deterministically
guarantees independence, maximality, and termination, at ``1 +
|smaller undecided neighbours|`` awake rounds (a constant in practice,
since the random phases already thinned every neighbourhood).

Awake complexity of a run: ``2 * len(mis_phase_plan(n))`` plus the
final-slots tail — ``Theta(log log n)`` and measured as such by the
``examples/campaigns/compare.toml`` campaign (``PROBLEMS_compare.json``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.core.ldt import LDTState
from repro.core.schedule import BlockClock
from repro.core.toolbox import transmit_adjacent
from repro.sim import Awake, NodeContext

#: Blocks consumed by one phase of Sleeping-MIS (contend + announce).
MIS_PHASE_BLOCKS = 2


@dataclass(frozen=True)
class MISNodeOutput:
    """What each node knows at termination (the MIS output convention).

    Every node decides *in* or *out*; an out node additionally knows at
    least one port towards an MIS neighbour (its domination witness).
    """

    node_id: int
    #: Whether this node joined the independent set.
    in_mis: bool
    #: Number of phases this node participated in (the final-slots stage
    #: counts as one extra phase).
    phases: int
    #: Phase index at which the node decided (``len(plan) + 1`` when the
    #: decision fell to the final-slots stage; ``0`` for ``n == 1``).
    decided_phase: int
    #: Ports on which a join announcement was heard — the domination
    #: witnesses.  Non-empty iff the node is out.
    mis_ports: FrozenSet[int] = frozenset()


def mis_phase_plan(n: int) -> Tuple[int, ...]:
    """The per-phase marking exponents: ``p_t = 2^{-plan[t]}``.

    Exponent-halving sparsification (``ceil(K/2), ceil(K/4), ..., 2`` for
    ``K = ceil(log2 n)``) followed by ``ceil(log2 K) + 2`` finishing
    phases at ``p = 1/2``.  Total length ``Theta(log log n)``.
    """
    if n < 2:
        return ()
    K = max(1, math.ceil(math.log2(n)))
    plan = []
    exponent = math.ceil(K / 2)
    while exponent > 1:
        plan.append(exponent)
        exponent = math.ceil(exponent / 2)
    finishing = (math.ceil(math.log2(K)) if K > 1 else 0) + 2
    plan.extend([1] * finishing)
    return tuple(plan)


def sleeping_mis_protocol(
    ctx: NodeContext, max_phases: Optional[int] = None
):
    """Protocol generator for one node running ``Sleeping-MIS``.

    ``max_phases`` truncates the random phase plan (tests use it to force
    work onto the deterministic final-slots stage); at least one phase
    always runs, because the stage needs the final census.  Correctness —
    independence and maximality — never depends on the random phases, only
    the awake complexity does.
    """
    plan = mis_phase_plan(ctx.n)
    if max_phases is not None and plan:
        plan = plan[: max(1, int(max_phases))]
    if ctx.n == 1 or not ctx.ports:
        if ctx.obs is not None:
            ctx.probe("mis_decided", in_mis=1, decided_phase=0, degree=0)
        return MISNodeOutput(
            node_id=ctx.node_id, in_mis=True, phases=0, decided_phase=0
        )

    ldt = LDTState.singleton(ctx.node_id)
    clock = BlockClock(ctx.n)
    final_phase = len(plan)
    #: port -> neighbour ID, learned from the final census.
    census: dict = {}
    mis_ports: set = set()
    decided: Optional[str] = None
    decided_phase = 0
    phases_run = 0

    for t, exponent in enumerate(plan, start=1):
        phases_run = t
        if ctx.obs is not None:
            ctx.count("algo.phases", algorithm="sleeping-mis")
        with ctx.span("phase", t):
            marked = ctx.rng.random() < 0.5 ** exponent
            rank = ctx.rng.randrange(ctx.n ** 3) if marked else 0
            if marked:
                sends = dict.fromkeys(ctx.ports, (1, rank, ctx.node_id))
            elif t == final_phase:
                # Census round: survivors must know who else survived (and
                # their IDs) for the final-slots stage.
                sends = dict.fromkeys(ctx.ports, (0, 0, ctx.node_id))
            else:
                sends = None
            with ctx.span("block:mis_contend"):
                inbox = yield from transmit_adjacent(
                    ctx, ldt, clock.take(), sends
                )
            if t == final_phase:
                census = {
                    port: message[2] for port, message in inbox.items()
                }
            joining = marked
            if marked:
                mine = (rank, ctx.node_id)
                for is_marked, nbr_rank, nbr_id in inbox.values():
                    if is_marked and (nbr_rank, nbr_id) < mine:
                        joining = False
                        break
            with ctx.span("block:mis_announce"):
                inbox = yield from transmit_adjacent(
                    ctx,
                    ldt,
                    clock.take(),
                    ctx.broadcast(("join", ctx.node_id)) if joining else None,
                )
            if joining:
                decided, decided_phase = "in", t
            elif inbox:
                mis_ports.update(inbox)
                decided, decided_phase = "out", t
        if decided is not None:
            break

    if decided is None:
        # Final-slots stage: deterministic finish for the (w.h.p. tiny)
        # set of survivors.  Every survivor contended in the final census,
        # so each knows the IDs of its still-undecided neighbours.
        phases_run = len(plan) + 1
        decided_phase = len(plan) + 1
        if ctx.obs is not None:
            ctx.count("algo.phases", algorithm="sleeping-mis")
        with ctx.span("stage:final_slots"):
            base = clock.next_start
            for nbr_id, port in sorted(
                (nbr_id, port)
                for port, nbr_id in census.items()
                if nbr_id < ctx.node_id
            ):
                inbox = yield Awake(base + nbr_id - 1)
                if inbox:
                    mis_ports.update(inbox)
                    decided = "out"
                    break
            if decided is None:
                yield Awake(
                    base + ctx.node_id - 1, ctx.broadcast(("join", ctx.node_id))
                )
                decided = "in"

    in_mis = decided == "in"
    if ctx.obs is not None:
        ctx.probe(
            "mis_decided",
            in_mis=1 if in_mis else 0,
            decided_phase=decided_phase,
            degree=len(ctx.ports),
        )
    return MISNodeOutput(
        node_id=ctx.node_id,
        in_mis=in_mis,
        phases=phases_run,
        decided_phase=decided_phase,
        mis_ports=frozenset(mis_ports),
    )
