"""The sleeping-model synchronous CONGEST simulation engine.

The engine executes a set of node protocols (see :mod:`repro.sim.node`) over
a weighted graph, faithfully implementing the sleeping model of Section 1.1
of the paper:

* Computation proceeds in synchronous rounds ``1, 2, 3, ...``; every node
  knows the current round number whenever it is awake.
* A node is awake exactly in the rounds its protocol yields; in all other
  rounds it is asleep — it sends nothing, receives nothing, and messages
  addressed to it are **lost**.
* In an awake round a node may send a (possibly distinct) message through
  each incident port and receives whatever its awake neighbours sent to it
  in the same round.
* Only awake rounds are charged to a node's awake complexity; the run time
  (round complexity) counts every round up to the last node's termination.

Transport layer
---------------
Message delivery is delegated to a pluggable :class:`~repro.sim.transport.
ChannelModel` (``SleepingSimulator(channel=...)``).  The default
:class:`~repro.sim.transport.PerfectChannel` reproduces the paper's
semantics byte-for-byte.  Every configuration runs through one round
loop: under the perfect channel it applies the sleeping rule inline, and
under a seeded fault model (drop/delay/duplicate/crash) it resolves each
:class:`~repro.sim.transport.Outcome` into the metrics, trace, and
observability layers.

Sparse execution
----------------
Round complexities in this paper are huge (``Θ(n log n)`` randomized,
``Θ(nN log n)`` deterministic) while total awake work is tiny
(``O(n log n)`` node-rounds).  The engine therefore never iterates over
rounds in which everybody sleeps: it keeps a min-heap of the distinct
rounds someone is due in, and a dict from each such round to the node IDs
due in it, and jumps directly from one populated round to the next.  A
Transmission-Schedule block wakes a whole fragment level in one round, so
one heap entry serves many awake steps.  Nodes due in the same round step
in ascending node-ID order.  Round *numbers* remain exact, so reported
round complexities are exact, but the wall-clock cost of a simulation is
proportional to awake work plus messages, not to the round count.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Tuple

from .congest import congest_policy
from .errors import (
    CongestViolation,
    NodeCrashed,
    ProtocolViolation,
    SimulationLimitExceeded,
)
from .metrics import Metrics, NodeMetrics
from .node import (
    Awake,
    NodeContext,
    ProtocolFactory,
    prime_protocol,
    run_protocol_step,
)
from .tracing import EventTrace, KnowledgeTracker
from .transport import ChannelModel, PerfectChannel

#: Marks "no payload sized yet" for a sender in the round loop; no
#: protocol payload is ever this object.
_UNSIZED: Any = object()


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    #: Per-node protocol return values, keyed by node ID.
    node_results: Dict[int, Any]
    #: Aggregate and per-node counters.
    metrics: Metrics
    #: Event trace (only populated when tracing was enabled).
    trace: Optional[EventTrace] = None
    #: Knowledge tracker (only populated when knowledge tracking was enabled).
    knowledge: Optional[KnowledgeTracker] = None
    #: Observability recorder (only populated when ``observe=True``):
    #: span-attributed awake accounting plus a metrics registry.
    obs: Optional[Any] = None
    #: Attached invariant :class:`repro.invariants.MonitorSet` (duck-typed;
    #: only populated when ``monitors=...`` was passed).  Its ``report``
    #: holds the run's violations.
    monitors: Optional[Any] = None

    @property
    def spans(self):
        """The run's :class:`repro.obs.SpanLog` (``None`` unless observed)."""
        return self.obs.spans if self.obs is not None else None

    @property
    def violations(self):
        """Invariant violations recorded by attached monitors (``[]`` when
        no monitors were attached)."""
        return self.monitors.report.violations if self.monitors is not None else []


@dataclass
class _NodeRuntime:
    """Engine-internal per-node state.

    ``node_metrics`` aliases the node's
    :class:`~repro.sim.metrics.NodeMetrics` and ``ports_map`` is its link
    table, so the round loop reaches a sender's and each receiver's
    counters with attribute loads and one dict lookup per message.
    """

    context: NodeContext
    protocol: Any
    #: Sends scheduled for the pending awake round: port -> payload.
    pending_sends: Dict[int, Any] = field(default_factory=dict)
    #: Knowledge mask snapshot taken when the pending sends were scheduled.
    pending_knowledge: int = 0
    #: Alias of ``metrics.per_node[node_id]`` for this run.
    node_metrics: Any = None
    #: Link table: port -> (neighbour ID, neighbour's port back to this
    #: node, the neighbour's ``NodeMetrics``).
    ports_map: Dict[int, Tuple[int, int, NodeMetrics]] = field(default_factory=dict)


class SleepingSimulator:
    """Run node protocols over a graph under sleeping-model semantics.

    Parameters
    ----------
    graph:
        A :class:`repro.graphs.WeightedGraph`.  Every node's ``ctx.n``
        and ``ctx.max_id`` are the graph's ``n`` and declared ``N``.
    protocol_factory:
        Called once per node with its :class:`~repro.sim.node.NodeContext`;
        must return the node's protocol generator.
    seed:
        Master seed; each node's private RNG is derived from it and the
        node's ID, so runs are exactly reproducible.
    congest_universe:
        Upper bound on message-field magnitudes for the CONGEST size budget.
        Defaults to ``max(n, N, max edge weight)`` read from the graph.
    strict_congest:
        If true (default), oversized messages raise
        :class:`~repro.sim.errors.CongestViolation`; otherwise they are
        merely counted.
    channel:
        A :class:`~repro.sim.transport.ChannelModel` deciding the fate of
        every transmitted message.  Defaults to
        :class:`~repro.sim.transport.PerfectChannel` (the paper's
        semantics, byte-identical to the pre-transport engine).  Fault
        models — ``DropChannel``, ``DelayChannel``, ``DuplicateChannel``,
        ``CrashSchedule`` — inject seeded, reproducible faults; see
        :mod:`repro.sim.transport`.
    trace:
        Record an :class:`~repro.sim.tracing.EventTrace`.
    max_trace_events:
        Optional ring-buffer cap for the event trace: keep only the most
        recent events and count the rest in ``trace.dropped``.
    observe:
        Enable the :mod:`repro.obs` instrumentation layer: per-node span
        accounting (awake rounds / messages / bits attributed to the
        innermost span opened via ``ctx.span``) plus engine counters in a
        metrics registry.  Never alters the execution — runs are
        byte-identical with this on or off.
    obs_registry:
        Optional :class:`repro.obs.MetricsRegistry` to record into
        (e.g. one shared across a batch); a fresh one is created when
        omitted and ``observe`` is true.
    monitors:
        Attach runtime invariant monitors: a
        :class:`repro.invariants.MonitorSet` (or a spec string such as
        ``"all"`` / ``"star-merge,coloring-legal"``, built lazily via
        :func:`repro.invariants.build_monitor_set`).  Monitors receive
        protocol probe snapshots (``ctx.probe``) and closed span records
        through the obs layer — attaching them implies observability —
        and never alter the execution.  Detached (the default) the engine
        is byte-identical to the pre-monitor code.
    track_knowledge:
        Maintain causal knowledge sets (Theorem 3 experiments).
    max_rounds:
        Abort if the simulation reaches a round beyond this cap.
    max_awake_events:
        Abort after this many node-awake events (guards against protocols
        that never terminate).
    """

    def __init__(
        self,
        graph: Any,
        protocol_factory: ProtocolFactory,
        *,
        seed: int = 0,
        congest_universe: Optional[int] = None,
        strict_congest: bool = True,
        congest_factor: Optional[int] = None,
        channel: Optional[ChannelModel] = None,
        trace: bool = False,
        max_trace_events: Optional[int] = None,
        observe: bool = False,
        obs_registry: Optional[Any] = None,
        monitors: Optional[Any] = None,
        track_knowledge: bool = False,
        max_rounds: Optional[int] = None,
        max_awake_events: int = 50_000_000,
    ) -> None:
        self.graph = graph
        self.protocol_factory = protocol_factory
        self.seed = seed
        self.max_rounds = max_rounds
        self.max_awake_events = max_awake_events

        self._node_ids: List[int] = graph.node_ids
        self._adjacency: Dict[int, Dict[int, Tuple[int, int, int]]] = {
            node_id: graph.ports_of(node_id) for node_id in self._node_ids
        }
        self.congest = congest_policy(
            graph, congest_universe, strict_congest, congest_factor
        )

        self.channel: ChannelModel = channel if channel is not None else PerfectChannel()

        self.trace = EventTrace(max_events=max_trace_events) if trace else None
        self.knowledge = (
            KnowledgeTracker(self._node_ids) if track_knowledge else None
        )
        if isinstance(monitors, str):
            # Spec strings resolve through the invariants registry; lazy
            # for the same layering reason as the obs import below.
            from repro.invariants import build_monitor_set

            monitors = build_monitor_set(monitors)
        if monitors is not None and len(monitors) == 0:
            monitors = None
        self.monitors = monitors
        self.obs = None
        if observe or monitors is not None:
            # Imported lazily: unobserved simulations never pay for (or
            # depend on) the observability subsystem.  Monitors piggyback
            # on the obs hooks (probes, span closures), so attaching them
            # implies an ObsRecorder.
            from repro.obs import ObsRecorder

            self.obs = ObsRecorder(registry=obs_registry, monitors=monitors)
        self._n = graph.n
        self._max_id = graph.max_id
        self._ran = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def _make_context(self, node_id: int) -> NodeContext:
        ports = self._adjacency[node_id]
        return NodeContext(
            node_id=node_id,
            n=self._n,
            max_id=self._max_id,
            ports=tuple(sorted(ports)),
            port_weights={port: ports[port][2] for port in ports},
            rng=Random(f"{self.seed}/{node_id}"),
            obs=self.obs.node_handle(node_id) if self.obs is not None else None,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return its result.

        Every configuration runs through the same round loop
        (:meth:`_run_rounds`); the channel model and the observers only
        change which branches of it fire.  A simulator runs once: its
        trace, knowledge tracker and observability recorder hold that
        run's history, so a second call raises :class:`RuntimeError`.

        A run that raises (a crashed node, a strict CONGEST violation, a
        limit) closes every unfinished protocol generator, in ascending
        node-ID order, before the error propagates: their open
        ``ctx.span`` blocks close then, not whenever garbage collection
        gets to them.
        """
        if self._ran:
            raise RuntimeError(
                "SleepingSimulator.run() was already called; build a new "
                "simulator for another run"
            )
        self._ran = True
        self.channel.reset(self._node_ids, Random(f"{self.seed}/transport"))
        if self.monitors is not None:
            self.monitors.attach(self.graph, self._node_ids, seed=self.seed)
        metrics = Metrics()
        results: Dict[int, Any] = {}
        runtimes: Dict[int, _NodeRuntime] = {}
        # Round -> IDs of the nodes due in it; each live node is in
        # exactly one list.
        due: Dict[int, List[int]] = {}

        # Every NodeMetrics exists before the link tables alias them,
        # created in ascending node-ID order as ``per_node`` lists them.
        node_metrics = {node_id: metrics.node(node_id) for node_id in self._node_ids}
        try:
            for node_id in self._node_ids:
                context = self._make_context(node_id)
                protocol = self.protocol_factory(context)
                runtime = _NodeRuntime(context=context, protocol=protocol)
                runtime.node_metrics = node_metrics[node_id]
                runtime.ports_map = {
                    port: (neighbour_id, neighbour_port, node_metrics[neighbour_id])
                    for port, (neighbour_id, neighbour_port, _) in self._adjacency[
                        node_id
                    ].items()
                }
                runtimes[node_id] = runtime
                finished, value = prime_protocol(protocol)
                if finished:
                    self._finish_node(node_id, runtime, value, 0, results, metrics)
                    continue
                self._accept_action(node_id, runtime, value, current_round=0)
                due.setdefault(value.round, []).append(node_id)

            self._run_rounds(metrics, results, runtimes, due)
        except BaseException:
            # ``runtimes`` is in ascending node-ID order.
            for runtime in runtimes.values():
                _close_quietly(runtime.protocol)
            raise

        if self.obs is not None:
            self.obs.finalize(metrics)
        if self.monitors is not None:
            self.monitors.finalize(
                metrics=metrics,
                spans=self.obs.spans,
                results=results,
                congest_budget=self.congest.budget,
            )

        return SimulationResult(
            node_results=results,
            metrics=metrics,
            trace=self.trace,
            knowledge=self.knowledge,
            obs=self.obs,
            monitors=self.monitors,
        )

    def _run_rounds(
        self,
        metrics: Metrics,
        results: Dict[int, Any],
        runtimes: Dict[int, _NodeRuntime],
        due: Dict[int, List[int]],
    ) -> None:
        """The round loop: jump to the next populated round, transmit, compute.

        ``due`` maps each round to the IDs of the nodes due in it; a
        min-heap holds its keys, one entry per populated round.  Each
        round gets one inbox per awake node, so a receiver is awake
        exactly when it has an inbox.

        Aggregate counters accumulate in locals and are written into
        ``metrics`` once, after the last round.  Under the perfect channel
        the sleeping rule decides each delivery inline; any other channel
        model returns an :class:`~repro.sim.transport.Outcome` per message,
        resolved here into drops, delayed deliveries (a heap of in-flight
        messages with deliver-at rounds), duplicates, and crash-stop node
        failures.  The observers (trace, knowledge, obs) are fed only when
        one is attached and never alter the execution.
        """
        trace = self.trace
        knowledge = self.knowledge
        spans_on = self.obs is not None
        # Observers fed once per message; spans are charged once per sender.
        message_observers = trace is not None or knowledge is not None
        observed = message_observers or spans_on
        channel = self.channel
        deliver = None if channel.is_perfect else channel.deliver
        crash_round = channel.crash_round
        has_crashes = any(
            crash_round(node_id) is not None for node_id in self._node_ids
        )
        congest = self.congest
        congest_check = congest.check
        congest_budget = congest.budget
        congest_strict = congest.strict
        max_rounds = self.max_rounds
        max_awake_events = self.max_awake_events
        accept_action = self._accept_action
        heappop = heapq.heappop
        heappush = heapq.heappush
        # Distinct rounds with a node due; ``due`` holds who.
        wake_rounds = list(due)
        heapq.heapify(wake_rounds)

        last_round = 0
        total_awake_rounds = 0
        messages_delivered = 0
        messages_lost = 0
        messages_dropped = 0
        messages_delayed = 0
        messages_duplicated = 0
        total_bits = 0
        max_message_bits = 0
        congest_violations = 0
        max_awake_running = 0

        # Knowledge masks that arrived with the messages, keyed by
        # receiver; every receiver is awake this round, so Phase B drains
        # the dict and it is reused round after round.
        received_masks: Dict[int, List[int]] = {}
        # In-flight messages re-scheduled by the channel (delays and
        # duplicate copies): a heap of ``(deliver_round, sequence,
        # receiver, receiver_port, payload, bits, sender, knowledge_mask)``.
        delayed: List[Tuple[int, int, int, int, Any, int, int, int]] = []
        delayed_seq = 0
        while wake_rounds:
            current_round = heappop(wake_rounds)
            if max_rounds is not None and current_round > max_rounds:
                raise SimulationLimitExceeded(
                    f"round {current_round} exceeds max_rounds={max_rounds}"
                )
            # Nodes due in the same round step in ascending node-ID order:
            # it fixes each inbox's port order and the order in which a
            # fault channel draws from its RNG.
            awake_now = due.pop(current_round)
            awake_now.sort()
            last_round = current_round

            if has_crashes:
                # A node crash-stops at the *start* of its crash round: it
                # neither transmits nor computes from that round on.
                alive: List[int] = []
                for node_id in awake_now:
                    crash_at = crash_round(node_id)
                    if crash_at is not None and crash_at <= current_round:
                        self._crash_node(
                            node_id, runtimes[node_id], current_round, metrics
                        )
                    else:
                        alive.append(node_id)
                awake_now = alive
            # One inbox per awake node: a receiver is awake exactly when
            # it has one.
            inboxes: Dict[int, Dict[int, Any]] = {
                node_id: {} for node_id in awake_now
            }

            # Delayed arrivals scheduled at or before this round resolve
            # now: an exactly-now arrival reaches an awake receiver;
            # anything else was addressed to a round its receiver slept
            # through and is lost (the sleeping rule, applied at arrival).
            # Resolving before Phase A means a same-round fresh send
            # overwrites a stale delayed copy on the same port.
            while delayed and delayed[0][0] <= current_round:
                (
                    arrive_round,
                    _,
                    receiver_id,
                    receiver_port,
                    payload,
                    bits,
                    sender_id,
                    mask,
                ) = heappop(delayed)
                inbox = inboxes.get(receiver_id)
                if arrive_round == current_round and inbox is not None:
                    inbox[receiver_port] = payload
                    messages_delivered += 1
                    receiver = runtimes[receiver_id].node_metrics
                    receiver.messages_received += 1
                    receiver.bits_received += bits
                    if knowledge is not None:
                        received_masks.setdefault(receiver_id, []).append(mask)
                    if trace is not None:
                        trace.record(
                            current_round, "deliver", receiver_id, sender_id, payload
                        )
                else:
                    messages_lost += 1
                    runtimes[
                        receiver_id
                    ].node_metrics.messages_lost_as_receiver += 1
                    if trace is not None:
                        trace.record(
                            arrive_round, "lose", receiver_id, sender_id, payload
                        )

            # Phase A: transmit.  All sends scheduled for this round go out
            # simultaneously; only awake receivers hear them.
            for node_id in awake_now:
                runtime = runtimes[node_id]
                pending = runtime.pending_sends
                if not pending:
                    continue
                ports_map = runtime.ports_map
                sent_bits = 0
                # A payload object is sized once per sender: a port whose
                # payload *is* the previous port's reuses its bits.
                # Identity, not equality, decides: ``(1,) == (True,)``
                # but their sizes differ.
                sized = _UNSIZED
                for port, payload in pending.items():
                    neighbour_id, neighbour_port, receiver = ports_map[port]
                    inbox = inboxes.get(neighbour_id)
                    if payload is not sized:
                        sized = payload
                        bits = congest_check(payload)
                        if bits > max_message_bits:
                            max_message_bits = bits
                    sent_bits += bits
                    if bits > congest_budget:
                        congest_violations += 1
                        if congest_strict:
                            if spans_on:
                                # The ports before this one were sent.
                                runtime.context.obs.charge_send(
                                    list(pending).index(port), sent_bits - bits
                                )
                            raise CongestViolation(
                                node_id, port, bits, congest_budget
                            )
                    if deliver is None:
                        kind = "lose" if inbox is None else "deliver"
                    else:
                        outcome = deliver(
                            current_round,
                            node_id,
                            port,
                            payload,
                            bits,
                            inbox is not None,
                        )
                        kind = outcome.kind
                        if kind == "drop":
                            messages_dropped += 1
                        elif kind == "delay":
                            messages_delayed += 1
                            delayed_seq += 1
                            heappush(
                                delayed,
                                (
                                    outcome.deliver_round,
                                    delayed_seq,
                                    neighbour_id,
                                    neighbour_port,
                                    payload,
                                    bits,
                                    node_id,
                                    runtime.pending_knowledge,
                                ),
                            )
                        if outcome.duplicate_round is not None:
                            messages_duplicated += 1
                            delayed_seq += 1
                            heappush(
                                delayed,
                                (
                                    outcome.duplicate_round,
                                    delayed_seq,
                                    neighbour_id,
                                    neighbour_port,
                                    payload,
                                    bits,
                                    node_id,
                                    runtime.pending_knowledge,
                                ),
                            )
                    if kind == "deliver":
                        inbox[neighbour_port] = payload
                        messages_delivered += 1
                        receiver.messages_received += 1
                        receiver.bits_received += bits
                    elif kind == "lose":
                        messages_lost += 1
                        receiver.messages_lost_as_receiver += 1
                    if message_observers:
                        if knowledge is not None and kind == "deliver":
                            received_masks.setdefault(neighbour_id, []).append(
                                runtime.pending_knowledge
                            )
                        if trace is not None:
                            trace.record(
                                current_round, "send", node_id, neighbour_id, payload
                            )
                            trace.record(
                                current_round, kind, neighbour_id, node_id, payload
                            )
                            if (
                                deliver is not None
                                and outcome.duplicate_round is not None
                            ):
                                trace.record(
                                    current_round,
                                    "duplicate",
                                    neighbour_id,
                                    node_id,
                                    payload,
                                )
                # A sent message is never taken back, so the sender's
                # counters are added once for all its sends.  Its
                # ``pending_sends`` stay: Phase B resumes it this round,
                # and it either finishes or stages new sends.
                sender_metrics = runtime.node_metrics
                sender_metrics.messages_sent += len(pending)
                sender_metrics.bits_sent += sent_bits
                total_bits += sent_bits
                if spans_on:
                    # The sender's generator is still suspended at the
                    # yield that scheduled these sends, so its innermost
                    # open span is the one that produced them.
                    runtime.context.obs.charge_send(len(pending), sent_bits)

            # Phase B: local computation.  Resume every awake node with its
            # inbox; it either terminates or schedules its next awake round.
            total_awake_rounds += len(awake_now)
            for node_id, inbox in inboxes.items():
                runtime = runtimes[node_id]
                node_metrics = runtime.node_metrics
                awake = node_metrics.awake_rounds + 1
                node_metrics.awake_rounds = awake
                if awake > max_awake_running:
                    max_awake_running = awake
                if observed:
                    if runtime.context.obs is not None:
                        runtime.context.obs.charge_awake(current_round)
                    if trace is not None:
                        trace.record(current_round, "wake", node_id)
                    if knowledge is not None:
                        knowledge.absorb(node_id, received_masks.pop(node_id, ()))
                        knowledge.note_awake(node_id)
                try:
                    finished, value = run_protocol_step(runtime.protocol, inbox)
                except (ProtocolViolation, CongestViolation):
                    raise
                except Exception as error:  # noqa: BLE001 - wrapped deliberately
                    node_obs = runtime.context.obs
                    span = (
                        node_obs.take_crash_label() if node_obs is not None else None
                    )
                    raise NodeCrashed(
                        node_id, current_round, error, span=span
                    ) from error
                if finished:
                    self._finish_node(
                        node_id, runtime, value, current_round, results, metrics
                    )
                else:
                    accept_action(node_id, runtime, value, current_round)
                    wake_round = value.round
                    bucket = due.get(wake_round)
                    if bucket is None:
                        due[wake_round] = [node_id]
                        heappush(wake_rounds, wake_round)
                    else:
                        bucket.append(node_id)

            if total_awake_rounds > max_awake_events:
                raise SimulationLimitExceeded(
                    f"exceeded max_awake_events={max_awake_events}; "
                    "a protocol is probably not terminating"
                )

        # In-flight messages outliving every wake-up arrive at rounds in
        # which nobody is awake: they resolve to ordinary sleeping losses,
        # so sends are always conserved as delivered + lost + dropped
        # (duplicated copies add to the delivered/lost side only).
        while delayed:
            arrive_round, _, receiver_id, _, payload, _, sender_id, _ = heappop(
                delayed
            )
            messages_lost += 1
            runtimes[receiver_id].node_metrics.messages_lost_as_receiver += 1
            if trace is not None:
                trace.record(arrive_round, "lose", receiver_id, sender_id, payload)

        metrics.rounds = last_round
        metrics.total_awake_rounds = total_awake_rounds
        metrics.messages_delivered = messages_delivered
        metrics.messages_lost = messages_lost
        metrics.messages_dropped = messages_dropped
        metrics.messages_delayed = messages_delayed
        metrics.messages_duplicated = messages_duplicated
        metrics.total_bits = total_bits
        metrics.max_message_bits = max_message_bits
        metrics.congest_violations = congest_violations
        metrics.max_awake_running = max_awake_running

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _crash_node(
        self,
        node_id: int,
        runtime: _NodeRuntime,
        current_round: int,
        metrics: Metrics,
    ) -> None:
        """Crash-stop ``node_id``: it fails before transmitting this round.

        Pending sends are discarded, the protocol generator is closed, and
        the node never reports a result — downstream output validation is
        what notices the hole (see :func:`repro.graphs.verify_or_diagnose`).
        """
        runtime.pending_sends = {}
        metrics.nodes_crashed += 1
        metrics.crashed_nodes[node_id] = current_round
        if self.trace is not None:
            self.trace.record(current_round, "crash", node_id)
        _close_quietly(runtime.protocol)

    def _accept_action(
        self,
        node_id: int,
        runtime: _NodeRuntime,
        action: Any,
        current_round: int,
    ) -> None:
        """Validate a yielded action and stage its sends."""
        if not isinstance(action, Awake):
            raise ProtocolViolation(
                node_id,
                f"protocol yielded {type(action).__name__!r}; expected Awake",
            )
        if action.round <= current_round:
            raise ProtocolViolation(
                node_id,
                f"scheduled awake round {action.round} is not after the "
                f"current round {current_round}",
            )
        sends = dict(action.sends)
        ports_map = runtime.ports_map
        if not sends.keys() <= ports_map.keys():
            for port in sends:
                if port not in ports_map:
                    raise ProtocolViolation(
                        node_id, f"send on unknown port {port}"
                    )
        runtime.pending_sends = sends
        if self.knowledge is not None:
            runtime.pending_knowledge = self.knowledge.snapshot(node_id)

    def _finish_node(
        self,
        node_id: int,
        runtime: _NodeRuntime,
        value: Any,
        current_round: int,
        results: Dict[int, Any],
        metrics: Metrics,
    ) -> None:
        results[node_id] = value
        metrics.node(node_id).terminated_round = current_round
        if self.trace is not None:
            self.trace.record(current_round, "terminate", node_id, detail=value)


def _close_quietly(protocol: Any) -> None:
    """Close a protocol generator; a dying generator cannot veto it."""
    try:
        protocol.close()
    except Exception:  # noqa: BLE001 - its own exit code failed; nothing to add
        pass


def simulate(
    graph: Any,
    protocol_factory: ProtocolFactory,
    **kwargs: Any,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`SleepingSimulator` and run it."""
    return SleepingSimulator(graph, protocol_factory, **kwargs).run()
