"""Vectorized array backend for the sleeping-model simulator.

The coroutine engine (:mod:`repro.sim.engine`) advances one generator per
node and pays Python-interpreter cost per awake event and per message.
This module provides the *substrate* for a second backend that represents
one Transmission-Schedule **block** (2n + 2 rounds, see
:mod:`repro.core.schedule`) as a handful of numpy operations over all
nodes at once:

* the graph becomes a CSR edge structure (:class:`ArrayGraph`) so message
  exchange is a gather/scatter over a precomputed directed-edge array;
* fragment roots, levels, and parent pointers live in int arrays;
* awake rounds, message counts, and CONGEST bit totals accumulate as
  vector reductions into :class:`BlockAccountant`, one pass per phase,
  and are folded into the exact same :class:`~repro.sim.metrics.Metrics`
  shape at the end.

The algorithm-level kernels (MOE selection, convergecast minima, merge
re-rooting) live in :mod:`repro.core.array_ops`, which charges the
accountant once per phase; this module knows about blocks, rounds, bits,
and budgets, but not how an MST is computed.

The backend is deliberately *narrow*: it runs Randomized-MST on the
perfect channel with no observers attached.  What it supports is stated
in the tables of :mod:`repro.sim.capabilities` (``ENGINES``,
``ARRAY_ALGORITHMS``, ...), whose :func:`~repro.sim.capabilities.require`
raises :class:`~repro.sim.errors.UnsupportedFeatureError` for anything
else.  Within that matrix the backend is held **byte-identical** to the
coroutine engine: same per-node :class:`~repro.sim.metrics.NodeMetrics`,
same summary, same ``RunRecord`` fingerprints
(``tests/sim/test_array_engine.py`` and the hypothesis suite in
``tests/core/test_array_equivalence.py`` are the oracle).

This module and :mod:`repro.core.array_ops` import numpy at their top;
nothing else in ``repro`` imports them until an ``engine="array"`` run
has passed ``require("array")``, so a process that never runs the array
engine never loads numpy.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple

import numpy as np

from .congest import congest_policy
from .errors import CongestViolation, SimulationLimitExceeded
from .metrics import Metrics, NodeMetrics

#: Scalar bit cost of ``None``/``bool`` payload fields (1 + tag overhead).
NONE_BITS = 3

#: Tuple framing overhead, matching :data:`repro.sim.congest.FIELD_OVERHEAD_BITS`.
TUPLE_OVERHEAD = 2

#: 2**0 .. 2**62: a value's bit length is the count of entries at or below it.
_POWERS_OF_TWO = np.left_shift(1, np.arange(63, dtype=np.int64))


class ArrayGraph:
    """CSR view of a weighted graph for vectorized message exchange.

    Nodes are re-indexed ``0..n-1`` in sorted-node-ID order (matching the
    coroutine engine's setup order, so per-node metrics come out in the
    same insertion order).  Directed edges are laid out per source node in
    ascending port order, so edge ``e``'s port at its source is
    ``e - indptr[src[e]]``.

    The CSR comes from the graph's edge columns
    (:attr:`~repro.graphs.WeightedGraph.edge_columns`), not its port
    tables: edge ``i`` is the directed pair ``2i`` (``u -> v``) and
    ``2i + 1`` (``v -> u``).  Each node numbers its ports in edge
    insertion order, so a stable sort of the directed edges by source
    puts every node's edges in port order, and each directed edge's
    reverse is its partner ``e ^ 1``.

    ``graph`` is a :class:`repro.graphs.WeightedGraph`, so every ID and
    weight fits int64 (:data:`repro.graphs.INT_BOUND`).
    """

    def __init__(self, graph: Any) -> None:
        ids = graph.node_ids
        columns = graph.edge_columns
        self.max_id = graph.max_id
        self.max_weight = graph.max_weight
        # np.fromiter with a known dtype and count converts a sequence of
        # Python ints faster than np.asarray, which first discovers the
        # dtype.
        self.n = n = len(ids)
        self.ids = np.fromiter(ids, np.int64, n)

        m = len(columns.weight)
        # ends[2i], ends[2i + 1] = u[i], v[i].  IDs sort as their node
        # indices do, so a stable sort of the IDs orders the directed
        # edges by source and, within a source, by port.
        ends = np.empty(2 * m, dtype=np.int64)
        ends[0::2] = np.fromiter(columns.u, np.int64, m)
        ends[1::2] = np.fromiter(columns.v, np.int64, m)
        order = np.argsort(ends, kind="stable")
        sorted_ends = ends[order]
        # Node k's run starts where its ID first appears; node 0's starts
        # at 0, so every directed edge has a source even if an ID names
        # no node (the check below rejects that).
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        indptr[1:n] = np.searchsorted(sorted_ends, self.ids[1:])
        indptr[n] = 2 * m
        self.indptr = indptr
        self.deg = np.diff(indptr)
        self.src = src = np.repeat(np.arange(n, dtype=np.int64), self.deg)
        edge_range = np.arange(2 * m, dtype=np.int64)
        self.port = edge_range - indptr[src]
        self.weight = np.fromiter(columns.weight, np.int64, m)[order >> 1]

        # rev[e] = the sorted position of e's partner (dst -> src).
        position = np.empty_like(order)
        position[order] = edge_range
        rev = position[order ^ 1]
        self.dst = dst = src[rev]
        if not (
            (self.ids[src] == sorted_ends).all() and (dst[rev] == src).all()
        ):
            raise ValueError(
                "asymmetric port table: a (neighbour, port) entry has no "
                "reverse entry pointing back"
            )
        self.rev = rev

    @property
    def m_directed(self) -> int:
        return int(self.src.shape[0])


def int_field_bits(values: Any) -> Any:
    """Vectorized :func:`repro.sim.congest._int_field_bits`.

    ``bit_length(v) + 3`` for ``v != 0`` and ``4`` for ``v == 0``, exactly
    matching the scalar sizer the coroutine engine applies per message,
    for every magnitude up to :data:`repro.graphs.INT_BOUND`.
    """
    v = np.abs(values)
    bit_length = np.searchsorted(_POWERS_OF_TWO, v, side="right")
    return np.where(v != 0, bit_length + 3, 4)


class BlockAccountant:
    """Per-node metric arrays plus the CONGEST budget, one run's worth.

    :mod:`repro.core.array_ops` charges each Randomized-MST phase once,
    whole.  A phase is three triples of blocks, each a side exchange, an
    upcast and a broadcast (blocks 1-3, 4-6 and 7-9); the phase that
    halts runs only the first triple.  The Transmission-Schedule fixes
    every block's wake-up offsets (:mod:`repro.core.schedule`), so
    :meth:`charge_awake` adds a phase's awake rounds in closed form, and
    each ``charge_*`` message helper sums its three blocks' payload bits
    per node before one reduction over edges or parents.  Every helper
    takes *arrays over all nodes* and updates awake counts, last-awake
    rounds, message counters and bit totals with vector operations.
    :meth:`check_limits` checks the phase's largest payload against the
    CONGEST budget and the round and awake-event caps, and
    :meth:`finalize` folds the arrays into the coroutine engine's
    :class:`~repro.sim.metrics.Metrics` shape.  The keywords are what
    :func:`~repro.sim.capabilities.validate_array_sim_kwargs` returns.
    """

    def __init__(
        self,
        graph: ArrayGraph,
        *,
        congest_universe: Optional[int],
        strict_congest: bool,
        congest_factor: Optional[int],
        max_rounds: Optional[int],
        max_awake_events: int,
    ) -> None:
        self.graph = graph
        n = graph.n
        self.awake = np.zeros(n, dtype=np.int64)
        self.msgs_sent = np.zeros(n, dtype=np.int64)
        self.msgs_received = np.zeros(n, dtype=np.int64)
        self.bits_sent = np.zeros(n, dtype=np.int64)
        self.bits_received = np.zeros(n, dtype=np.int64)
        self.last_awake = np.zeros(n, dtype=np.int64)
        self.max_message_bits = 0
        self.congest_violations = 0
        self.budget = congest_policy(
            graph, congest_universe, strict_congest, congest_factor
        ).budget
        self.strict_congest = strict_congest
        self.max_rounds = max_rounds
        self.max_awake_events = max_awake_events
        # The charged phase's message blocks, kept until check_limits in
        # case one of its messages is over budget.
        self._side: Sequence[Any] = ()
        self._up: Tuple[Any, ...] = ()
        self._down: Tuple[Any, ...] = ()
        self._phase_max = 0

    # ------------------------------------------------------------------
    # Awake accounting
    # ------------------------------------------------------------------

    def charge_awake(
        self,
        starts: Sequence[int],
        level: Any,
        nonroot: Any,
        has_children: Any,
        merging: Any = None,
    ) -> None:
        """Charge one phase's awake rounds; ``starts`` are its block starts.

        Every node wakes once per side exchange.  In an upcast or a
        broadcast a node with children wakes once to hear them or send to
        them, and a non-root node once to send to or hear its parent.
        ``merging is None`` marks the halting phase (blocks 1-3 only);
        otherwise the last upcast and broadcast (blocks 8-9) wake only the
        ``merging`` nodes.

        A node's last awake round is then its broadcast send (Down-Send,
        ``start + level``) or receive (Down-Receive, ``start + level -
        1``) in the phase's last broadcast it takes part in, or else the
        last side exchange (``start + n``).
        """
        tree = np.add(nonroot, has_children, dtype=np.int64)
        if merging is None:
            self.awake += 1 + 2 * tree
            last_tree, side, down = tree > 0, starts[0], starts[2]
        else:
            self.awake += 3 + tree * np.where(merging, 6, 4)
            last_tree, side, down = merging & (tree > 0), starts[6], starts[8]
        self.last_awake = np.where(
            last_tree, level + has_children + (down - 1), side + self.graph.n
        )

    # ------------------------------------------------------------------
    # Message accounting (all delivered: every receiver below is awake in
    # the sending round by the Transmission-Schedule invariants, so the
    # sleeping-loss branch of the coroutine engine can never fire here).
    # Each helper takes one payload array per block of its kind, in
    # schedule order, and folds the largest payload actually sent into
    # the phase's maximum.
    # ------------------------------------------------------------------

    def charge_side_exchange(self, payloads: Sequence[Any]) -> None:
        """Every node sends ``payloads[k][v]`` bits on each port in the
        phase's ``k``-th side exchange; all are delivered.

        On a connected graph every node has a port, so every payload is
        sent.
        """
        g = self.graph
        total = sum(payloads)
        sent = len(payloads) * g.deg
        self.msgs_sent += sent
        self.msgs_received += sent
        self.bits_sent += g.deg * total
        self.bits_received += np.bincount(
            g.dst, weights=total[g.src], minlength=g.n
        ).astype(np.int64)
        self._side = payloads
        self._phase_max = max(self._phase_max, *map(np.ndarray.max, payloads))

    def charge_up_messages(
        self,
        parent: Any,
        level: Any,
        senders: Sequence[Any],
        payloads: Sequence[Any],
    ) -> None:
        """In the phase's ``k``-th upcast every ``senders[k]`` node sends
        ``payloads[k]`` bits to its parent.

        Senders are non-root nodes.  Shifting ``parent`` by one puts
        roots (``-1``) in bin 0, which is dropped.
        """
        n = self.graph.n
        sent = [np.where(mask, bits, 0) for mask, bits in zip(senders, payloads)]
        count = sum(senders)
        total = sum(sent)
        self.msgs_sent += count
        self.bits_sent += total
        to_parent = parent + 1
        self.msgs_received += np.bincount(
            to_parent, weights=count, minlength=n + 1
        )[1:].astype(np.int64)
        self.bits_received += np.bincount(
            to_parent, weights=total, minlength=n + 1
        )[1:].astype(np.int64)
        self._up = (parent, level, senders, payloads)
        self._phase_max = max(self._phase_max, *map(np.ndarray.max, sent))

    def charge_down_messages(
        self,
        parent: Any,
        level: Any,
        child_count: Any,
        senders: Sequence[Any],
        payloads: Sequence[Any],
    ) -> None:
        """In the phase's ``k``-th broadcast every ``senders[k]`` node sends
        ``payloads[k]`` bits to each of its children.

        A node receives exactly when its parent sends, so each side is a
        product: fan-outs are the child counts, and a receiver's bits are
        its parent's payload.
        """
        sent = [np.where(mask, bits, 0) for mask, bits in zip(senders, payloads)]
        count = sum(senders)
        total = sum(sent)
        self.msgs_sent += child_count * count
        self.bits_sent += child_count * total
        nonroot = parent >= 0
        self.msgs_received += nonroot * count[parent]
        self.bits_received += nonroot * total[parent]
        self._down = (child_count, senders, payloads)
        self._phase_max = max(self._phase_max, *map(np.ndarray.max, sent))

    # ------------------------------------------------------------------
    # CONGEST: checked once per phase against its largest payload.  Only
    # a phase with an over-budget message walks its blocks.
    #
    # Strict CONGEST raises for the over-budget message the coroutine
    # engine sends first: the earliest block, then the earliest send
    # round of the block, then the lowest node ID (nodes due in one round
    # step in ID order), then the first port the node's send dict lists.
    # ------------------------------------------------------------------

    def _over_budget(self) -> None:
        """Walk the charged phase's blocks in schedule order.

        Strict CONGEST raises :class:`CongestViolation` for the first
        over-budget message; lenient CONGEST counts every over-budget
        message.
        """
        g = self.graph
        budget = self.budget
        parent, level, up_senders, up_payloads = self._up
        child_count, down_senders, down_payloads = self._down
        violations = 0
        for side, up_mask, up_bits, down_mask, down_bits in zip(
            self._side, up_senders, up_payloads, down_senders, down_payloads
        ):
            # Side exchange: every node sends in the same round, on its
            # ports in ascending order, so the lowest over-budget node's
            # port 0 carries the first message; a payload sent on deg
            # ports is deg messages.
            culprits = np.nonzero(side > budget)[0]
            if culprits.size:
                if self.strict_congest:
                    first = int(culprits[0])
                    raise self._violation(first, 0, side[first])
                violations += int(g.deg[culprits].sum())
            # Upcast: a node at ``level`` sends in round
            # ``Block.up_send(level)``, so the deepest sender goes first.
            culprits = np.nonzero(up_mask & (up_bits > budget))[0]
            if culprits.size:
                if self.strict_congest:
                    first = int(culprits[np.argmax(level[culprits])])
                    raise self._violation(
                        first,
                        self._lowest_port(first, np.arange(g.n) == parent[first]),
                        up_bits[first],
                    )
                violations += int(culprits.size)
            # Broadcast: a node at ``level`` sends in round
            # ``Block.down_send(level)``, so the shallowest sender goes
            # first, on its lowest child port: the coroutine protocols
            # send with ``dict.fromkeys`` over the set of child ports, and
            # a set of ints below 8 iterates in ascending order (child
            # ports at 8 or above may iterate in another order).
            culprits = np.nonzero(down_mask & (down_bits > budget))[0]
            if culprits.size:
                if self.strict_congest:
                    first = int(culprits[np.argmin(level[culprits])])
                    raise self._violation(
                        first,
                        self._lowest_port(first, parent == first),
                        down_bits[first],
                    )
                violations += int(child_count[culprits].sum())
        self.congest_violations += violations

    def _violation(self, node: int, port: int, bits: int) -> CongestViolation:
        return CongestViolation(
            int(self.graph.ids[node]), int(port), int(bits), self.budget
        )

    def _lowest_port(self, node: int, toward: Any) -> int:
        """``node``'s lowest port to a neighbour in the node mask ``toward``."""
        g = self.graph
        lo, hi = g.indptr[node], g.indptr[node + 1]
        return int(g.port[lo:hi][toward[g.dst[lo:hi]]][0])

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def check_limits(self) -> None:
        """Close the charged phase: CONGEST first, then the round and
        awake-event safety caps (coarsely, per phase)."""
        if self._side:
            phase_max = int(self._phase_max)
            if phase_max > self.max_message_bits:
                self.max_message_bits = phase_max
            if phase_max > self.budget:
                self._over_budget()
            self._side = ()
            self._phase_max = 0
        if self.max_rounds is not None:
            last = int(self.last_awake.max()) if self.graph.n else 0
            if last > self.max_rounds:
                raise SimulationLimitExceeded(
                    f"round {last} exceeds max_rounds={self.max_rounds}"
                )
        total = int(self.awake.sum())
        if total > self.max_awake_events:
            raise SimulationLimitExceeded(
                f"{total} awake events exceed the limit of "
                f"{self.max_awake_events}"
            )

    def finalize(self) -> Metrics:
        """Fold the arrays into the coroutine engine's ``Metrics`` shape."""
        metrics = Metrics()
        g = self.graph
        awake = self.awake.tolist()
        msgs_sent = self.msgs_sent.tolist()
        msgs_received = self.msgs_received.tolist()
        bits_sent = self.bits_sent.tolist()
        bits_received = self.bits_received.tolist()
        last_awake = self.last_awake.tolist()
        for idx, node_id in enumerate(g.ids.tolist()):
            metrics.per_node[node_id] = NodeMetrics(
                awake_rounds=awake[idx],
                messages_sent=msgs_sent[idx],
                messages_received=msgs_received[idx],
                messages_lost_as_receiver=0,
                bits_sent=bits_sent[idx],
                bits_received=bits_received[idx],
                terminated_round=last_awake[idx],
            )
        metrics.rounds = max(last_awake) if last_awake else 0
        metrics.total_awake_rounds = int(self.awake.sum())
        metrics.max_awake_running = max(awake) if awake else 0
        metrics.messages_delivered = int(self.msgs_received.sum())
        metrics.messages_lost = 0
        metrics.total_bits = int(self.bits_sent.sum())
        metrics.max_message_bits = self.max_message_bits
        metrics.congest_violations = self.congest_violations
        return metrics
