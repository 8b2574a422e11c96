"""Node-side API of the sleeping-model simulator.

A distributed algorithm is expressed as a *protocol*: a generator function
that receives a :class:`NodeContext` and yields :class:`Awake` actions.  Each
yield corresponds to exactly one awake round:

.. code-block:: python

    def my_protocol(ctx):
        # Round 1: send our ID to every neighbour and hear theirs.
        inbox = yield Awake(1, {port: ctx.node_id for port in ctx.ports})
        neighbour_ids = dict(inbox)
        # Sleep until round 100, then wake silently (listen only).
        inbox = yield Awake(100)
        return neighbour_ids  # becomes the node's result

Between yields the node is asleep: it sends nothing, hears nothing, and
messages addressed to it are lost — exactly the sleeping model of
Chatterjee, Gmyr, and Pandurangan (PODC 2020) used by the paper.

Local computation between yields is free (the model charges only awake
rounds), but each yield must schedule a strictly later round than the
previous one.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from random import Random
from typing import Any, Callable, Dict, Generator, Mapping, Tuple

class _NullSpan:
    """Shared no-op context manager returned when observability is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()

#: Inbox type: port number -> payload received on that port this round.
Inbox = Dict[int, Any]

#: A protocol is a generator: yields Awake, receives Inbox, returns a result.
Protocol = Generator["Awake", Inbox, Any]

#: Factory invoked once per node to create its protocol generator.
ProtocolFactory = Callable[["NodeContext"], Protocol]


#: Default marker for :class:`Awake`'s ``sends``: each listen-only action
#: gets its own fresh empty dict, as a ``default_factory=dict`` would.
_NO_SENDS: Any = object()


class Awake:
    """One awake round: wake at ``round``, transmitting ``sends``.

    Parameters
    ----------
    round:
        Absolute round number (1-based) in which to be awake.  Must be
        strictly greater than the node's previous awake round.
    sends:
        Mapping from local port number to payload.  Ports not listed send
        nothing.  An empty mapping (the default) means listen-only.

    Immutable like a frozen dataclass (assignment and deletion raise
    :class:`dataclasses.FrozenInstanceError`; ``==`` and ``repr`` compare
    and show both fields), but a plain ``__slots__`` class, which is
    cheaper to construct: every awake round of every node builds one
    (``docs/performance.md``, "Coroutine hot path").
    """

    __slots__ = ("round", "sends")

    def __init__(self, round: int, sends: Mapping[int, Any] = _NO_SENDS) -> None:
        if round < 1:
            raise ValueError(f"awake round must be >= 1, got {round}")
        _set_awake_round(self, round)
        _set_awake_sends(self, {} if sends is _NO_SENDS else sends)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.round, self.sends) == (other.round, other.sends)

    def __repr__(self) -> str:
        return f"Awake(round={self.round!r}, sends={self.sends!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Awake, (self.round, self.sends))


# Writing through the slot descriptors skips the raising ``__setattr__``
# and is cheaper than ``object.__setattr__``.
_set_awake_round = Awake.round.__set__  # type: ignore[attr-defined]
_set_awake_sends = Awake.sends.__set__  # type: ignore[attr-defined]


@dataclass
class NodeContext:
    """Everything a node knows at the start of the computation.

    Matches Section 1.1 of the paper: a node knows its own ID, the weights of
    its incident edges (keyed by local port number), the network size ``n``,
    the maximum possible ID ``max_id`` (``N``; only the deterministic
    algorithm relies on it), and has a private source of randomness.  It does
    *not* know its neighbours' IDs (KT0) — protocols that need them exchange
    IDs in an explicit awake round.
    """

    #: This node's unique ID (an integer in ``[1, max_id]``).
    node_id: int
    #: Number of nodes in the network (globally known).
    n: int
    #: Largest possible node ID ``N`` (globally known; ``>= n``).
    max_id: int
    #: Local port numbers, ``0 .. degree-1``.
    ports: Tuple[int, ...]
    #: Weight of the incident edge on each port.
    port_weights: Dict[int, int]
    #: Private randomness, seeded deterministically by the engine.
    rng: Random
    #: Per-node observability handle (:class:`repro.obs.NodeObs`), set by
    #: the engine when it runs with ``observe=True``; ``None`` otherwise.
    #: Spans never alter protocol behaviour — a run is identical with
    #: instrumentation on or off.
    obs: Any = None

    @property
    def degree(self) -> int:
        return len(self.ports)

    def span(self, *parts: Any):
        """Open an accounting span named by ``parts`` (joined with ``:``).

        Use as a context manager around a phase or block of the protocol::

            with ctx.span("phase", 3):
                with ctx.span("block:upcast_moe"):
                    result = yield from upcast_min(ctx, ldt, block, value)

        While the generator is suspended inside the span, the engine
        charges this node's awake rounds, messages, and bits to it (to the
        innermost span when nested).  Each call returns a new span, to be
        entered once.  Returns a shared no-op context manager when
        observability is disabled.  An unobserved protocol still pays for
        this call, its ``None`` check, and the ``with`` statement's
        ``__enter__`` and ``__exit__`` calls on the no-op.
        """
        obs = self.obs
        if obs is None:
            return _NULL_SPAN
        return obs.span(parts)

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        """Increment a metrics-registry counter (no-op when disabled)."""
        obs = self.obs
        if obs is not None:
            obs.count(name, value, **labels)

    def probe(self, point: str, **state: Any) -> None:
        """Emit a named state snapshot for attached invariant monitors.

        Protocol code calls this at the paper's checkpoint moments (e.g.
        ``ctx.probe("phase_end", phase=p, fragment=f, ...)``); a
        :class:`repro.invariants.MonitorSet` attached via
        ``SleepingSimulator(monitors=...)`` buffers the snapshots and
        fires its global checkers once every node has reported.  Like
        spans, probes never alter execution — with no monitors attached
        this is a single ``None`` check.
        """
        obs = self.obs
        if obs is not None:
            obs.probe(point, state)

    def min_weight_port(self) -> int:
        """Return the port with the lightest incident edge."""
        return min(self.ports, key=lambda port: self.port_weights[port])

    def broadcast(self, payload: Any) -> Dict[int, Any]:
        """Convenience: a ``sends`` mapping addressing every port.

        Every port carries the same ``payload`` object, so the engine
        sizes it once for all of them.
        """
        return dict.fromkeys(self.ports, payload)


def run_protocol_step(
    protocol: Protocol, inbox: Inbox
) -> Tuple[bool, Any]:
    """Advance ``protocol`` by one awake round.

    Returns ``(finished, value)`` where ``value`` is the next
    :class:`Awake` action if not finished, or the protocol's return value
    if finished.  This helper exists so the engine and tests share identical
    resumption semantics.
    """
    try:
        action = protocol.send(inbox)
    except StopIteration as stop:
        return True, stop.value
    return False, action


def prime_protocol(protocol: Protocol) -> Tuple[bool, Any]:
    """Start ``protocol``, returning its first action (or immediate result)."""
    try:
        action = next(protocol)
    except StopIteration as stop:
        return True, stop.value
    return False, action
