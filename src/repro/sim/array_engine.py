"""Vectorized array backend for the sleeping-model simulator.

The coroutine engine (:mod:`repro.sim.engine`) advances one generator per
node and pays Python-interpreter cost per awake event and per message.
This module provides the *substrate* for a second backend that represents
one Transmission-Schedule **block** (2n + 2 rounds, see
:mod:`repro.core.schedule`) as a handful of numpy operations over all
nodes at once:

* the graph becomes a CSR edge structure (:class:`ArrayGraph`) so message
  exchange is a gather/scatter over a precomputed directed-edge array;
* fragment labels, levels, and parent pointers live in int arrays;
* awake rounds, message counts, and CONGEST bit totals accumulate as
  vector reductions into :class:`BlockAccountant` and are folded into the
  exact same :class:`~repro.sim.metrics.Metrics` shape at the end.

The algorithm-level kernels (MOE selection, convergecast minima, merge
re-rooting) live in :mod:`repro.core.array_ops`, which drives the
accountant block by block; this module knows about blocks, rounds, bits,
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

from typing import Any, Optional

import numpy as np

from .congest import DEFAULT_CONGEST_FACTOR, congest_budget_bits
from .errors import CongestViolation, SimulationLimitExceeded
from .metrics import Metrics, NodeMetrics

#: Scalar bit cost of ``None``/``bool`` payload fields (1 + tag overhead).
NONE_BITS = 3

#: Tuple framing overhead, matching :data:`repro.sim.congest.FIELD_OVERHEAD_BITS`.
TUPLE_OVERHEAD = 2


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
    """

    def __init__(self, graph: Any) -> None:
        # np.fromiter with a known dtype and count converts a sequence of
        # Python ints faster than np.asarray, which first discovers the
        # dtype.
        ids = sorted(graph.node_ids)
        if not ids:
            raise ValueError("graph has no nodes")
        self.n = n = len(ids)
        self.ids = np.fromiter(ids, np.int64, n)
        self.max_id = int(self.ids[-1])

        columns = graph.edge_columns
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
        self.max_weight = int(np.abs(self.weight).max(initial=1))

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
    matching the scalar sizer the coroutine engine applies per message.
    The bit length comes from the ``frexp`` exponent, exact for all
    magnitudes below 2**53 (node IDs and weights are far below).
    """
    v = np.abs(values)
    _, exponent = np.frexp(v)
    return np.where(v != 0, exponent + 3, 4)


class BlockAccountant:
    """Per-node metric arrays plus the CONGEST budget, one run's worth.

    The algorithm kernels call the ``charge_*`` helpers once per block;
    every helper takes *arrays over all nodes* (or all directed edges) and
    updates awake counts, last-awake rounds, message counters, and bit
    totals with vector reductions.  :meth:`finalize` folds the arrays into
    the coroutine engine's :class:`~repro.sim.metrics.Metrics` shape.
    """

    def __init__(
        self,
        graph: ArrayGraph,
        *,
        congest_universe: Optional[int] = None,
        strict_congest: bool = True,
        congest_factor: Optional[int] = None,
        max_rounds: Optional[int] = None,
        max_awake_events: int = 50_000_000,
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
        universe = congest_universe or max(
            graph.n, graph.max_id, graph.max_weight
        )
        factor = (
            DEFAULT_CONGEST_FACTOR if congest_factor is None else congest_factor
        )
        self.budget = congest_budget_bits(universe, factor)
        self.strict_congest = strict_congest
        self.max_rounds = max_rounds
        self.max_awake_events = max_awake_events

    # ------------------------------------------------------------------
    # Awake accounting
    # ------------------------------------------------------------------

    def charge_awake(self, mask: Any, round_numbers: Any) -> None:
        """Mark ``mask`` nodes awake at the given per-node round numbers.

        ``round_numbers`` may be a scalar (same round for every node, as
        in Side-Send-Receive) or an array.  Rounds are charged in block
        order, so the last charge per node is its latest awake round.
        """
        if mask is None:
            self.awake += 1
            self.last_awake[:] = round_numbers
            return
        self.awake += mask
        np.copyto(self.last_awake, round_numbers, where=mask)

    # ------------------------------------------------------------------
    # Message accounting (all delivered: every receiver below is awake in
    # the sending round by the Transmission-Schedule invariants, so the
    # sleeping-loss branch of the coroutine engine can never fire here).
    #
    # Strict CONGEST raises for the over-budget message the coroutine
    # engine sends first: the earliest send round of the block, then the
    # lowest node ID (nodes due in one round step in ID order), then the
    # first port the node's send dict lists.
    # ------------------------------------------------------------------

    def _over_budget(self, payload_bits: Any) -> Any:
        """Fold one block's payload sizes into the maximum.

        Returns the mask of entries over the CONGEST budget, or ``None``
        when none is.
        """
        if payload_bits.size == 0:
            return None
        block_max = int(payload_bits.max())
        if block_max > self.max_message_bits:
            self.max_message_bits = block_max
        if block_max <= self.budget:
            return None
        return payload_bits > self.budget

    def _violation(self, node: int, port: int, bits: int) -> CongestViolation:
        return CongestViolation(
            int(self.graph.ids[node]), int(port), int(bits), self.budget
        )

    def _lowest_port(self, node: int, toward: Any) -> int:
        """``node``'s lowest port to a neighbour in the node mask ``toward``."""
        g = self.graph
        lo, hi = g.indptr[node], g.indptr[node + 1]
        return int(g.port[lo:hi][toward[g.dst[lo:hi]]][0])

    def charge_side_exchange(self, payload_bits_per_node: Any) -> None:
        """All nodes send one message per port; all are delivered.

        ``payload_bits_per_node[v]`` is the size of the (uniform) payload
        node ``v`` puts on every port this block.  Every node sends in
        the same round, on its ports in ascending order, so the first
        message in CSR edge order is the first one sent.
        """
        g = self.graph
        self.msgs_sent += g.deg
        self.msgs_received += g.deg
        self.bits_sent += g.deg * payload_bits_per_node
        # One message per directed edge; a payload sent on deg ports is
        # deg messages for violation counting.
        edge_bits = payload_bits_per_node[g.src]
        self.bits_received += np.bincount(
            g.dst, weights=edge_bits, minlength=g.n
        ).astype(np.int64)
        over = self._over_budget(edge_bits)
        if over is None:
            return
        if self.strict_congest:
            edge = int(np.argmax(over))
            raise self._violation(g.src[edge], g.port[edge], edge_bits[edge])
        self.congest_violations += int(np.count_nonzero(over))

    def charge_up_messages(
        self,
        sender_mask: Any,
        parent: Any,
        level: Any,
        payload_bits_per_node: Any,
    ) -> None:
        """Each ``sender_mask`` node sends one message to its parent.

        A node at ``level`` sends in round ``Block.up_send(level)``, so
        the deepest sender goes first.
        """
        senders = np.nonzero(sender_mask)[0]
        if senders.size == 0:
            return
        n = self.graph.n
        bits = payload_bits_per_node[senders]
        parents = parent[senders]
        self.msgs_sent[senders] += 1
        self.bits_sent[senders] += bits
        self.msgs_received += np.bincount(parents, minlength=n)
        self.bits_received += np.bincount(
            parents, weights=bits, minlength=n
        ).astype(np.int64)
        over = self._over_budget(bits)
        if over is None:
            return
        if self.strict_congest:
            culprits = senders[over]
            first = int(culprits[np.argmax(level[culprits])])
            raise self._violation(
                first,
                self._lowest_port(first, np.arange(n) == parent[first]),
                payload_bits_per_node[first],
            )
        self.congest_violations += int(np.count_nonzero(over))

    def charge_down_messages(
        self,
        sender_mask: Any,
        parent: Any,
        level: Any,
        child_count: Any,
        receiver_mask: Any,
        payload_bits_per_node: Any,
        receiver_bits: Any = None,
    ) -> None:
        """Senders fan one payload out to all their children.

        ``payload_bits_per_node`` is indexed by sender for the bits sent.
        Each receiver hears its own parent's payload; in a fragment
        broadcast that equals its own fragment's payload, so the same
        array serves both sides — pass ``receiver_bits`` (indexed by
        receiver) when the payload varies per sender (the merge down
        pass).

        A node at ``level`` sends in round ``Block.down_send(level)``, so
        the shallowest sender goes first, on its lowest child port: the
        coroutine protocols send with ``dict.fromkeys`` over the set of
        child ports, and a set of ints below 8 iterates in ascending
        order (child ports at 8 or above may iterate in another order).
        """
        senders = np.nonzero(sender_mask)[0]
        if senders.size:
            fanout = child_count[senders]
            bits = payload_bits_per_node[senders]
            self.msgs_sent[senders] += fanout
            self.bits_sent[senders] += fanout * bits
            over = self._over_budget(bits)
            if over is not None:
                if self.strict_congest:
                    culprits = senders[over]
                    first = int(culprits[np.argmin(level[culprits])])
                    raise self._violation(
                        first,
                        self._lowest_port(first, parent == first),
                        payload_bits_per_node[first],
                    )
                self.congest_violations += int(fanout[over].sum())
        if receiver_bits is None:
            receiver_bits = payload_bits_per_node
        self.msgs_received += receiver_mask
        self.bits_received += receiver_mask * receiver_bits

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def check_limits(self) -> None:
        """Enforce the round/awake-event safety caps (coarsely, per phase)."""
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
