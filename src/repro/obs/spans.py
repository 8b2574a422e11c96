"""Span-based awake accounting for sleeping-model simulations.

A *span* is a named interval of a node's protocol execution — a phase, a
Transmission-Schedule block, a toolbox procedure.  Protocol code opens
spans around its logical sections::

    with ctx.span("phase", phase_number):
        with ctx.span("block:upcast_moe"):
            fragment_moe = yield from upcast_min(ctx, ldt, clock.take(), w)

While a node's generator is suspended inside a span, the engine charges
every awake round, message, and payload bit of that node to the **innermost
open span** — so the per-span totals decompose a node's awake complexity
exactly: summed over all of a node's span records (including the implicit
per-node root span that collects anything outside user spans), the awake
counts equal ``Metrics.per_node[v].awake_rounds``.  That identity is what
makes the paper's "9 blocks × O(1) awake rounds per phase" claim (Theorem 1)
directly observable and testable.

Spans never touch the protocol's randomness, messages, or schedule, so a
run is byte-identical with instrumentation on or off; span data rides next
to the deterministic record, never inside it.

Nodes are instrumented through a tiny per-node handle
(:class:`NodeObs`) stored on :class:`repro.sim.node.NodeContext`; when
observability is off the context holds ``None`` and ``ctx.span`` returns a
shared no-op context manager, so disabled runs pay a single ``is None``
check per call site.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Dict, List, Optional, Tuple

from .registry import MetricsRegistry

#: Path of the implicit per-node root span (charges outside any user span).
ROOT_PATH: Tuple[str, ...] = ()

#: Label under which root-span charges appear in reports.
UNATTRIBUTED = "(unattributed)"


class SpanRecord:
    """One closed span instance of one node.

    ``awake`` / ``messages`` / ``bits`` count only charges attributed to
    this span *directly* (not to its children); ``first_round`` /
    ``last_round`` bound those direct charges.  ``extent_first`` /
    ``extent_last`` additionally cover every descendant span, which is what
    trace timelines want.  ``index`` is the global open order — a stable
    sort key.

    Immutable like a frozen dataclass (keyword or positional construction;
    field-wise ``==``, ``hash`` and ``repr``; assignment and deletion raise
    :class:`dataclasses.FrozenInstanceError`; picklable), but a plain
    ``__slots__`` class, which is cheaper to construct: every closed span
    of an observed run builds one (``docs/performance.md``, "Observed
    path").
    """

    __slots__ = (
        "node",
        "path",
        "awake",
        "messages",
        "bits",
        "first_round",
        "last_round",
        "extent_first",
        "extent_last",
        "index",
    )

    def __init__(
        self,
        node: int,
        path: Tuple[str, ...],
        awake: int,
        messages: int,
        bits: int,
        first_round: Optional[int],
        last_round: Optional[int],
        extent_first: Optional[int],
        extent_last: Optional[int],
        index: int,
    ) -> None:
        _set_node(self, node)
        _set_path(self, path)
        _set_awake(self, awake)
        _set_messages(self, messages)
        _set_bits(self, bits)
        _set_first_round(self, first_round)
        _set_last_round(self, last_round)
        _set_extent_first(self, extent_first)
        _set_extent_last(self, extent_last)
        _set_index(self, index)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _astuple(self) -> Tuple[Any, ...]:
        return (
            self.node,
            self.path,
            self.awake,
            self.messages,
            self.bits,
            self.first_round,
            self.last_round,
            self.extent_first,
            self.extent_last,
            self.index,
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(self.__slots__, self._astuple())
        )
        return f"SpanRecord({fields})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return (SpanRecord, self._astuple())

    @property
    def name(self) -> str:
        return self.path[-1] if self.path else UNATTRIBUTED

    @property
    def label(self) -> str:
        return "/".join(self.path) if self.path else UNATTRIBUTED

    @property
    def is_root(self) -> bool:
        return not self.path

    def to_dict(self) -> Dict[str, Any]:
        return {
            "node": self.node,
            "path": self.label,
            "awake": self.awake,
            "messages": self.messages,
            "bits": self.bits,
            "first_round": self.first_round,
            "last_round": self.last_round,
            "extent_first": self.extent_first,
            "extent_last": self.extent_last,
        }


# Writing through the slot descriptors skips the raising ``__setattr__``
# and is cheaper than ``object.__setattr__``.
_set_node = SpanRecord.node.__set__  # type: ignore[attr-defined]
_set_path = SpanRecord.path.__set__  # type: ignore[attr-defined]
_set_awake = SpanRecord.awake.__set__  # type: ignore[attr-defined]
_set_messages = SpanRecord.messages.__set__  # type: ignore[attr-defined]
_set_bits = SpanRecord.bits.__set__  # type: ignore[attr-defined]
_set_first_round = SpanRecord.first_round.__set__  # type: ignore[attr-defined]
_set_last_round = SpanRecord.last_round.__set__  # type: ignore[attr-defined]
_set_extent_first = SpanRecord.extent_first.__set__  # type: ignore[attr-defined]
_set_extent_last = SpanRecord.extent_last.__set__  # type: ignore[attr-defined]
_set_index = SpanRecord.index.__set__  # type: ignore[attr-defined]


class _OpenSpan:
    """A span on some node's stack: its own context manager and accumulator.

    :meth:`NodeObs.span` returns one; ``__enter__`` gives it its path and
    global open index and pushes it, ``__exit__`` pops and closes it.
    """

    __slots__ = (
        "obs",
        "name",
        "path",
        "index",
        "awake",
        "messages",
        "bits",
        "first_round",
        "last_round",
        "extent_first",
        "extent_last",
    )

    def __init__(self, obs: "NodeObs", name: str):
        self.obs = obs
        self.name = name
        self.awake = 0
        self.messages = 0
        self.bits = 0
        self.first_round: Optional[int] = None
        self.last_round: Optional[int] = None
        self.extent_first: Optional[int] = None
        self.extent_last: Optional[int] = None

    def __enter__(self) -> "_OpenSpan":
        obs = self.obs
        stack = obs._stack
        recorder = obs.recorder
        self.path = stack[-1].path + (self.name,)
        self.index = recorder._index
        recorder._index += 1
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        obs = self.obs
        # An exception unwinds every open span before the engine can ask
        # which one the node died in; remember the innermost label so
        # NodeCrashed can still name it.
        if exc_type is not None and obs._crash_label is None:
            obs._crash_label = obs.current_label()
        stack = obs._stack
        if len(stack) <= 1:
            raise RuntimeError(
                f"node {obs.node}: span stack underflow (unbalanced exit)"
            )
        stack.pop()._close(stack)
        return False

    def _close(self, stack: List["_OpenSpan"]) -> None:
        """Record this span, just popped off ``stack``, and fold its extent
        into the new top."""
        extent_last = self.extent_last
        if stack and extent_last is not None:
            # A node's charged rounds strictly increase, and while this
            # span was open every charge went to it or its descendants.
            # So its extent starts after, and ends after, everything its
            # parent covers so far: min/max reduce to these two writes.
            parent = stack[-1]
            if parent.extent_first is None:
                parent.extent_first = self.extent_first
            parent.extent_last = extent_last
        recorder = self.obs.recorder
        record = SpanRecord(
            self.obs.node,
            self.path,
            self.awake,
            self.messages,
            self.bits,
            self.first_round,
            self.last_round,
            self.extent_first,
            extent_last,
            self.index,
        )
        recorder.spans.records.append(record)
        monitors = recorder.monitors
        if monitors is not None:
            monitors.on_span_close(record)


class SpanLog:
    """All closed span records of one simulation, in close order."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def for_node(self, node: int) -> List[SpanRecord]:
        return [record for record in self.records if record.node == node]

    def nodes(self) -> List[int]:
        return sorted({record.node for record in self.records})

    def per_node_awake(self, include_root: bool = True) -> Dict[int, int]:
        """Span-attributed awake rounds per node (the accounting identity)."""
        totals: Dict[int, int] = {}
        for record in self.records:
            if record.is_root and not include_root:
                continue
            totals[record.node] = totals.get(record.node, 0) + record.awake
        return totals

    def unattributed_awake(self) -> Dict[int, int]:
        """Awake rounds charged outside every user span, per node."""
        return {
            record.node: record.awake
            for record in self.records
            if record.is_root and record.awake
        }

    def to_dicts(self) -> List[Dict[str, Any]]:
        ordered = sorted(self.records, key=lambda r: (r.node, r.index))
        return [record.to_dict() for record in ordered]


class NodeObs:
    """Per-node observability handle: span stack + registry access.

    The engine charges through :meth:`charge_awake` / :meth:`charge_send`;
    protocol code opens spans through :meth:`span` (normally via
    ``ctx.span``) and bumps counters through :meth:`count`.
    """

    __slots__ = ("recorder", "node", "_stack", "_crash_label", "_last_round")

    def __init__(self, recorder: "ObsRecorder", node: int):
        self.recorder = recorder
        self.node = node
        self._crash_label: Optional[str] = None
        self._last_round: int = 0
        root = _OpenSpan(self, "")
        root.path = ROOT_PATH
        root.index = recorder._index
        recorder._index += 1
        self._stack: List[_OpenSpan] = [root]

    # -- protocol-facing API -------------------------------------------

    def span(self, parts: Tuple[Any, ...]) -> _OpenSpan:
        """A span named by ``parts`` joined with ``:``; enter it to open it."""
        if len(parts) == 1 and parts[0].__class__ is str:
            # Every block span has a one-string name: use it as given.
            return _OpenSpan(self, parts[0])
        return _OpenSpan(self, ":".join(map(str, parts)))

    def count(self, name: str, value: float = 1, **labels: Any) -> None:
        self.recorder.registry.counter(name).inc(value, **labels)

    def probe(self, point: str, state: Dict[str, Any]) -> None:
        """Forward a protocol state snapshot to attached invariant monitors.

        A no-op (one attribute load) when the recorder carries no monitor
        set — observe-only runs pay nothing extra.
        """
        monitors = self.recorder.monitors
        if monitors is not None:
            monitors.on_probe(self.node, self._last_round, point, state)

    # -- engine-facing API ---------------------------------------------

    def charge_awake(self, round_number: int) -> None:
        self._crash_label = None  # a new step: any recorded unwind is stale
        self._last_round = round_number
        top = self._stack[-1]
        top.awake += 1
        if top.first_round is None:
            top.first_round = round_number
        top.last_round = round_number
        if top.extent_first is None:
            top.extent_first = round_number
        top.extent_last = round_number

    def charge_send(self, messages: int, bits: int) -> None:
        """Charge ``messages`` sends totalling ``bits`` bits, all made in
        one round, to the innermost open span."""
        top = self._stack[-1]
        top.messages += messages
        top.bits += bits

    def current_label(self) -> Optional[str]:
        """Label of the innermost open span, ``None`` when only the root
        is open.

        The engine attaches this to :class:`~repro.sim.errors.NodeCrashed`
        so a fault post-mortem names the phase/block the node died in.
        """
        top = self._stack[-1]
        if not top.path:
            return None
        return "/".join(top.path)

    def take_crash_label(self) -> Optional[str]:
        """The innermost span open when the last exception unwound, if any.

        Falls back to :meth:`current_label` (an exception raised outside
        every span leaves nothing recorded).  Clears the recorded label.
        """
        label, self._crash_label = self._crash_label, None
        return label or self.current_label()

    def close_all(self) -> None:
        """Close any spans left open (normally just the root) at run end."""
        stack = self._stack
        while stack:
            stack.pop()._close(stack)


class ObsRecorder:
    """Per-run observability state: one span log + one metrics registry.

    Construct one per simulation (``SleepingSimulator(..., observe=True)``
    does this) and read :attr:`spans` / :attr:`registry` afterwards.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        monitors: Optional[Any] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Attached invariant :class:`repro.invariants.MonitorSet` (duck-
        #: typed; ``None`` for observe-only runs).  Receives every probe
        #: snapshot and closed span record.
        self.monitors = monitors
        self.spans = SpanLog()
        #: Global open order: the next span's ``index``.
        self._index = 0
        self._handles: Dict[int, NodeObs] = {}

    def node_handle(self, node_id: int) -> NodeObs:
        handle = NodeObs(self, node_id)
        self._handles[node_id] = handle
        return handle

    def close(self) -> None:
        """Close every node's remaining open spans, in node-ID order."""
        for node_id in sorted(self._handles):
            self._handles[node_id].close_all()

    def finalize(self, metrics: Any) -> None:
        """Close spans and snapshot engine counters into the registry."""
        self.close()
        registry = self.registry
        registry.counter("sim.awake_rounds").inc(metrics.total_awake_rounds)
        registry.counter("sim.messages").inc(
            metrics.messages_delivered, outcome="delivered"
        )
        registry.counter("sim.messages").inc(metrics.messages_lost, outcome="lost")
        # Fault counters only materialize when the channel model injected
        # something: fault-free dumps stay byte-identical to runs predating
        # the transport layer.
        if metrics.messages_dropped:
            registry.counter("sim.messages").inc(
                metrics.messages_dropped, outcome="dropped"
            )
        if metrics.messages_delayed:
            registry.counter("sim.messages").inc(
                metrics.messages_delayed, outcome="delayed"
            )
        if metrics.messages_duplicated:
            registry.counter("sim.messages").inc(
                metrics.messages_duplicated, outcome="duplicated"
            )
        if metrics.nodes_crashed:
            registry.counter("sim.nodes_crashed").inc(metrics.nodes_crashed)
        registry.counter("sim.bits").inc(metrics.total_bits)
        registry.gauge("sim.rounds").set(metrics.rounds)
        registry.gauge("sim.max_awake").set(metrics.max_awake)
        histogram = registry.histogram("sim.node_awake")
        for node in metrics.per_node.values():
            histogram.observe(node.awake_rounds)
