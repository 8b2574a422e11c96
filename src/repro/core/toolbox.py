"""The paper's toolbox of ``O(1)``-awake LDT procedures (Appendix B).

Each procedure is a *sub-protocol*: a generator designed to be composed into
a node's main protocol with ``yield from``.  A procedure occupies exactly one
Transmission-Schedule block (``2n + 2`` rounds, see
:mod:`repro.core.schedule`), wakes the node a constant number of times, and
returns its node-local result via the generator return value.

All nodes of the network must run the *same* procedure in the *same* block
(roots and leaves simply use fewer wake-ups); this is guaranteed by the
globally known phase plans of the algorithms.

Procedures
----------
``fragment_broadcast``
    Root-to-all dissemination inside one fragment (Observation 2).
``upcast_min`` / ``upcast_aggregate``
    All-to-root convergecast inside one fragment (Observation 3);
    ``upcast_aggregate`` generalises the min to any associative,
    commutative merge whose results stay ``O(log n)`` bits.
``transmit_adjacent``
    One simultaneous exchange between neighbouring nodes of *different*
    fragments (Observation 4) — possible because every node's
    Side-Send-Receive offset is the same round ``n + 1`` of the block.
``neighbor_refresh``
    The standard ``transmit_adjacent`` payload ``(fragment ID, level)``,
    cached into the node's :class:`~repro.core.ldt.LDTState`.

Observability: ``neighbor_awareness`` opens one :mod:`repro.obs` span per
block (``block:na_transmit`` / ``block:na_upcast`` / ``block:na_broadcast``)
so its ``O(1)``-awake budget is individually measurable wherever it is
composed; the single-block procedures are spanned by their callers, which
know the block's role in the phase plan.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Tuple

from repro.sim import Awake, Inbox, NodeContext

from .ldt import LDTState
from .schedule import Block

#: Sentinel for "this node holds no value" in convergecasts.  ``None`` is a
#: one-bit payload, so leaving it in messages keeps them CONGEST-small.
NOTHING = None


def min_merge(a: Any, b: Any) -> Any:
    """Merge for :func:`upcast_min`: minimum, ignoring :data:`NOTHING`."""
    if a is NOTHING:
        return b
    if b is NOTHING:
        return a
    return a if a <= b else b


def fragment_broadcast(
    ctx: NodeContext, ldt: LDTState, block: Block, payload: Any = NOTHING
):
    """Broadcast the root's ``payload`` to every node of its fragment.

    Every node returns the broadcast value (the root returns its own
    ``payload``; non-root callers' ``payload`` argument is ignored, mirroring
    the paper where only the root holds the message).

    Awake cost: root 1 round (0 if it has no children); non-root 2 rounds
    (1 if it is a leaf).  Run time: one block, i.e. ``O(n)`` rounds.
    """
    if ldt.is_root:
        if ldt.children_ports:
            yield Awake(
                block.down_send(0), dict.fromkeys(ldt.children_ports, payload)
            )
        return payload
    inbox: Inbox = yield Awake(block.down_receive(ldt.level))
    received = inbox.get(ldt.parent_port, NOTHING)
    if ldt.children_ports:
        yield Awake(
            block.down_send(ldt.level), dict.fromkeys(ldt.children_ports, received)
        )
    return received


def upcast_aggregate(
    ctx: NodeContext,
    ldt: LDTState,
    block: Block,
    value: Any,
    merge: Callable[[Any, Any], Any],
):
    """Convergecast: combine all nodes' values up to the fragment root.

    Each node returns the merge of the values in its own subtree; in
    particular the root returns the fragment-wide aggregate.  ``merge`` must
    be associative and commutative and must keep payloads ``O(log n)`` bits
    (e.g. min, sum of bounded counts, or a capped top-k list).

    Awake cost: at most 2 rounds per node.  Run time: one block.
    """
    combined = value
    if ldt.children_ports:
        inbox: Inbox = yield Awake(block.up_receive(ldt.level))
        for port in ldt.children_ports:
            if port in inbox:
                combined = merge(combined, inbox[port])
    if not ldt.is_root:
        yield Awake(block.up_send(ldt.level), {ldt.parent_port: combined})
    return combined


def upcast_min(ctx: NodeContext, ldt: LDTState, block: Block, value: Any):
    """``Upcast-Min`` of the paper: convergecast the minimum value.

    Nodes holding no value pass :data:`NOTHING`; if no node holds a value
    the root obtains :data:`NOTHING`.
    """
    result = yield from upcast_aggregate(ctx, ldt, block, value, min_merge)
    return result


def transmit_adjacent(
    ctx: NodeContext,
    ldt: LDTState,
    block: Block,
    sends: Optional[Mapping[int, Any]] = None,
):
    """One Side-Send-Receive exchange; returns the raw inbox.

    ``sends`` maps ports to payloads (default: send nothing, listen only).
    Every node of every fragment is awake in the same absolute round, so all
    messages between simultaneously-running fragments are delivered.

    Awake cost: exactly 1 round.  Run time: one block.  ``sends`` is
    yielded as given: :class:`~repro.sim.SleepingSimulator` copies it
    when it accepts the action, so a later change by the caller cannot
    alter the messages.
    """
    inbox: Inbox = yield Awake(block.side(), sends or {})
    return inbox


def neighbor_refresh(
    ctx: NodeContext, ldt: LDTState, block: Block, extra: Tuple[Any, ...] = ()
):
    """Exchange ``(fragment ID, level, *extra)`` with every neighbour.

    Sends on **all** ports (tree neighbours included — their cached entries
    must stay fresh too) and updates the LDT's per-port neighbour cache.
    Returns the raw inbox so callers can inspect the ``extra`` fields.
    """
    payload = (ldt.fragment_id, ldt.level) + tuple(extra)
    inbox = yield from transmit_adjacent(
        ctx, ldt, block, dict.fromkeys(ctx.ports, payload)
    )
    neighbor_fragment = ldt.neighbor_fragment
    neighbor_level = ldt.neighbor_level
    for port, received in inbox.items():
        neighbor_fragment[port] = received[0]
        neighbor_level[port] = received[1]
    return inbox


def neighbor_awareness(
    ctx: NodeContext,
    ldt: LDTState,
    clock,
    sends: Optional[Mapping[int, Any]] = None,
    merge: Callable[[Any, Any], Any] = min_merge,
    collect: Optional[Callable[[Any], Any]] = None,
):
    """``Neighbor-Awareness`` (Section 2.3): fragment-wide cross-fragment news.

    Three blocks: (1) ``Transmit-Adjacent`` — nodes with something to tell
    adjacent fragments send it on the given ports; (2) ``upcast`` — each
    fragment aggregates whatever its members heard; (3)
    ``Fragment-Broadcast`` — the aggregate reaches every member.  Returns
    the fragment-wide aggregate (:data:`NOTHING` if nobody heard anything).

    ``merge`` combines heard values (default: min — right when a single
    value is in flight, as in the colouring stages); ``collect`` maps the
    raw inbox to this node's contribution (default: merge of the inbox
    values).  Announcing fragments run the same three blocks (their members
    hear nothing, so their aggregate is :data:`NOTHING`), which keeps every
    clock aligned.
    """
    with ctx.span("block:na_transmit"):
        inbox = yield from transmit_adjacent(ctx, ldt, clock.take(), sends or {})
    if collect is not None:
        heard = collect(inbox)
    else:
        heard = NOTHING
        for value in inbox.values():
            heard = merge(heard, value)
    with ctx.span("block:na_upcast"):
        aggregated = yield from upcast_aggregate(
            ctx, ldt, clock.take(), heard, merge
        )
    with ctx.span("block:na_broadcast"):
        result = yield from fragment_broadcast(
            ctx, ldt, clock.take(), aggregated if ldt.is_root else NOTHING
        )
    return result


def local_moe(ctx: NodeContext, ldt: LDTState) -> Any:
    """This node's candidate for the fragment MOE, or :data:`NOTHING`.

    Returns ``(weight, port)`` of the lightest incident edge whose other
    endpoint is (per the neighbour cache) in a different fragment.  Must be
    called after a :func:`neighbor_refresh` in the current phase.
    """
    best: Any = NOTHING
    for port in ctx.ports:
        if ldt.neighbor_fragment.get(port) == ldt.fragment_id:
            continue
        if port not in ldt.neighbor_fragment:
            # No information about this neighbour yet; callers refresh first,
            # so this indicates a phase-plan bug.
            raise RuntimeError(
                f"node {ctx.node_id}: neighbour cache empty on port {port}; "
                "run neighbor_refresh before local_moe"
            )
        candidate = (ctx.port_weights[port], port)
        if best is NOTHING or candidate < best:
            best = candidate
    return best
