"""Engine semantics: delivery, loss, accounting, violations, determinism."""

from __future__ import annotations

import pytest

from repro.core import randomized_mst_protocol
from repro.graphs import path_graph, ring_graph, star_graph
from repro.sim import (
    Awake,
    CongestViolation,
    NodeCrashed,
    ProtocolViolation,
    SimulationLimitExceeded,
    SleepingSimulator,
    simulate,
)
from repro.sim.congest import payload_bits


def exchange_ids_protocol(ctx):
    """Everyone awake in round 1; exchange IDs."""
    inbox = yield Awake(1, ctx.broadcast(ctx.node_id))
    return dict(inbox)


class TestDelivery:
    def test_simultaneously_awake_neighbours_hear_each_other(self, small_ring):
        result = simulate(small_ring, exchange_ids_protocol)
        for node in small_ring.node_ids:
            heard = set(result.node_results[node].values())
            assert heard == set(small_ring.neighbors(node))

    def test_message_to_sleeping_node_is_lost(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            if ctx.node_id == 1:
                inbox = yield Awake(1, ctx.broadcast("early"))
            else:
                inbox = yield Awake(2, ctx.broadcast("late"))
            return dict(inbox)

        result = simulate(graph, protocol)
        assert result.node_results[1] == {}
        assert result.node_results[2] == {}
        assert result.metrics.messages_lost == 2
        assert result.metrics.messages_delivered == 0

    def test_listen_only_round_receives(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            if ctx.node_id == 1:
                inbox = yield Awake(3, ctx.broadcast("hello"))
            else:
                inbox = yield Awake(3)  # awake, silent
            return dict(inbox)

        result = simulate(graph, protocol)
        assert list(result.node_results[2].values()) == ["hello"]

    def test_distinct_messages_per_port(self, small_star):
        hub = small_star.node_ids[0] if small_star.degree(small_star.node_ids[0]) > 1 else None
        # Identify the hub: the unique node with degree n-1.
        hub = next(
            node
            for node in small_star.node_ids
            if small_star.degree(node) == small_star.n - 1
        )

        def protocol(ctx):
            if ctx.node_id == hub:
                sends = {port: ("to", port) for port in ctx.ports}
                yield Awake(1, sends)
                return None
            inbox = yield Awake(1)
            return list(inbox.values())

        result = simulate(small_star, protocol)
        for node in small_star.node_ids:
            if node == hub:
                continue
            (message,) = result.node_results[node]
            assert message[0] == "to"

    def test_full_duplex_on_one_edge(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            inbox = yield Awake(1, ctx.broadcast(ctx.node_id * 100))
            return dict(inbox)

        result = simulate(graph, protocol)
        assert list(result.node_results[1].values()) == [200]
        assert list(result.node_results[2].values()) == [100]


class TestAccounting:
    def test_awake_rounds_counted_per_yield(self, small_ring):
        def protocol(ctx):
            yield Awake(1)
            yield Awake(5)
            yield Awake(100)
            return None

        result = simulate(small_ring, protocol)
        assert result.metrics.max_awake == 3
        assert result.metrics.rounds == 100
        assert result.metrics.mean_awake == 3.0

    def test_rounds_is_last_executed_round(self):
        graph = path_graph(3, seed=0)

        def protocol(ctx):
            yield Awake(ctx.node_id * 10)
            return None

        result = simulate(graph, protocol)
        assert result.metrics.rounds == 30

    def test_sparse_execution_handles_huge_round_numbers(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(10**12)
            return None

        result = simulate(graph, protocol)
        assert result.metrics.rounds == 10**12
        assert result.metrics.max_awake == 1

    def test_awake_round_product(self, small_ring):
        def protocol(ctx):
            yield Awake(7)
            return None

        result = simulate(small_ring, protocol)
        assert result.metrics.awake_round_product == 7

    def test_bits_accounted(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(1, ctx.broadcast(12345))
            return None

        result = simulate(graph, protocol)
        assert result.metrics.total_bits > 0
        assert result.metrics.max_message_bits > 0

    def test_terminated_round_recorded(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(4)
            return "done"

        result = simulate(graph, protocol)
        for node in graph.node_ids:
            assert result.metrics.per_node[node].terminated_round == 4


class TestViolations:
    def test_past_round_rejected(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(5)
            yield Awake(5)  # not strictly later
            return None

        with pytest.raises(ProtocolViolation):
            simulate(graph, protocol)

    def test_round_zero_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Awake(0)

    def test_unknown_port_rejected(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(1, {99: "boom"})
            return None

        with pytest.raises(ProtocolViolation):
            simulate(graph, protocol)

        # A later-round action mixing known and unknown ports names the
        # first unknown port in ``sends`` order.
        def mixed(ctx):
            yield Awake(1)
            yield Awake(2, {0: "ok", 99: "a", 98: "b"})
            return None

        with pytest.raises(ProtocolViolation, match="send on unknown port 99$"):
            simulate(graph, mixed)

    def test_non_awake_yield_rejected(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield "not an action"
            return None

        with pytest.raises(ProtocolViolation):
            simulate(graph, protocol)

    def test_node_exception_wrapped(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(1)
            raise RuntimeError("algorithm bug")

        with pytest.raises(NodeCrashed) as excinfo:
            simulate(graph, protocol)
        assert "algorithm bug" in repr(excinfo.value.__cause__)

    def test_oversized_message_strict(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(1, ctx.broadcast(tuple(range(500))))
            return None

        with pytest.raises(CongestViolation):
            simulate(graph, protocol)

    def test_oversized_message_lenient_counts(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(1, ctx.broadcast(tuple(range(500))))
            return None

        result = simulate(graph, protocol, strict_congest=False)
        assert result.metrics.congest_violations == 2

    def test_max_rounds_limit(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            yield Awake(10**6)
            return None

        with pytest.raises(SimulationLimitExceeded):
            simulate(graph, protocol, max_rounds=1000)

    def test_runaway_protocol_hits_event_limit(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            round_number = 0
            while True:
                round_number += 1
                yield Awake(round_number)

        with pytest.raises(SimulationLimitExceeded):
            simulate(graph, protocol, max_awake_events=100)


class TestDeterminism:
    def test_same_seed_same_execution(self, small_random_graph):
        def protocol(ctx):
            inbox = yield Awake(1, ctx.broadcast(ctx.rng.randrange(1000)))
            return sorted(inbox.values())

        first = simulate(small_random_graph, protocol, seed=42)
        second = simulate(small_random_graph, protocol, seed=42)
        assert first.node_results == second.node_results

    def test_different_seed_different_randomness(self, small_random_graph):
        def protocol(ctx):
            yield Awake(1)
            return ctx.rng.randrange(10**9)

        first = simulate(small_random_graph, protocol, seed=1)
        second = simulate(small_random_graph, protocol, seed=2)
        assert first.node_results != second.node_results

    def test_immediate_return_without_waking(self):
        graph = path_graph(2, seed=0)

        def protocol(ctx):
            return ctx.node_id
            yield  # pragma: no cover - makes this a generator

        result = simulate(graph, protocol)
        assert result.node_results == {1: 1, 2: 2}
        assert result.metrics.max_awake == 0


class TestRunOnce:
    def test_second_run_raises_and_keeps_the_first_runs_observers(self):
        """A simulator's trace, knowledge and obs hold one run's history,
        so a second ``run()`` is refused instead of appending to them."""

        def build():
            return SleepingSimulator(
                ring_graph(6, seed=1),
                randomized_mst_protocol,
                seed=3,
                trace=True,
                track_knowledge=True,
                observe=True,
            )

        sim = build()
        first = sim.run()
        with pytest.raises(RuntimeError, match="already called"):
            sim.run()
        fresh = build().run()
        assert len(first.trace) == len(fresh.trace)
        assert len(first.spans) == len(fresh.spans)
        assert first.knowledge.growth_curve(1) == fresh.knowledge.growth_curve(1)
        assert first.metrics.summary() == fresh.metrics.summary()


class TestObservers:
    def test_trace_records_wakes_and_sends(self, small_ring):
        result = simulate(small_ring, exchange_ids_protocol, trace=True)
        wakes = result.trace.of_kind("wake")
        assert len(wakes) == small_ring.n
        assert len(result.trace.of_kind("send")) == 2 * small_ring.m

    def test_knowledge_grows_by_neighbourhood(self, small_ring):
        result = simulate(
            small_ring, exchange_ids_protocol, track_knowledge=True
        )
        for node in small_ring.node_ids:
            known = result.knowledge.known_nodes(node)
            assert known == {node} | set(small_ring.neighbors(node))

    def test_knowledge_snapshot_excludes_same_round_receipts(self):
        """A message carries the sender's *pre-round* knowledge."""
        graph = path_graph(3, seed=0)

        def protocol(ctx):
            yield Awake(1, ctx.broadcast(ctx.node_id))
            yield Awake(2, ctx.broadcast(ctx.node_id))
            return None

        result = simulate(graph, protocol, track_knowledge=True)
        # Node 3 hears node 2 twice.  Node 2 learned about node 1 in round 1,
        # so its round-2 message carries node 1: node 3 ends knowing all.
        assert result.knowledge.known_nodes(3) == {1, 2, 3}
        # But after only its first awake round, node 3 knew just {2, 3}.
        curve = result.knowledge.growth_curve(3)
        assert curve[1] == (1, 2)


class TestPayloadSizing:
    """Each payload object is sized once per sender per round, and every
    message is still charged its bits."""

    DEGREE = 6

    def _hub_run(self, hub_sends, **kwargs):
        """Build a star whose hub sends ``hub_sends(ctx)`` in round 1
        while every leaf listens.  Returns the simulator, not yet run,
        and the list its ``check`` appends each sized payload to."""
        graph = star_graph(self.DEGREE + 1, seed=0)

        def protocol(ctx):
            if ctx.degree == self.DEGREE:
                yield Awake(1, hub_sends(ctx))
            else:
                yield Awake(1)
            return None

        simulator = SleepingSimulator(graph, protocol, **kwargs)
        checked = []
        check = simulator.congest.check

        def counting_check(payload):
            checked.append(payload)
            return check(payload)

        simulator.congest.check = counting_check
        return simulator, checked

    def test_broadcast_object_sized_once_and_charged_per_port(self):
        payload = ("hub", 123456, 7)
        simulator, checked = self._hub_run(lambda ctx: ctx.broadcast(payload))
        result = simulator.run()
        bits = payload_bits(payload)
        assert checked == [payload]
        metrics = result.metrics
        assert metrics.messages_delivered == self.DEGREE
        assert metrics.total_bits == self.DEGREE * bits
        assert metrics.max_message_bits == bits
        assert sum(node.bits_received for node in metrics.per_node.values()) == (
            self.DEGREE * bits
        )
        assert sum(node.bits_sent for node in metrics.per_node.values()) == (
            self.DEGREE * bits
        )

    def test_over_budget_broadcast_lenient_counts_every_port(self):
        oversized = tuple(range(500))
        simulator, checked = self._hub_run(
            lambda ctx: ctx.broadcast(oversized), strict_congest=False
        )
        result = simulator.run()
        assert len(checked) == 1
        assert result.metrics.congest_violations == self.DEGREE
        assert result.metrics.total_bits == self.DEGREE * payload_bits(oversized)

    def test_over_budget_broadcast_strict_raises_on_first_port(self):
        oversized = tuple(range(500))
        # Reversed, so the first port in ``sends`` order is not port 0.
        simulator, _ = self._hub_run(
            lambda ctx: dict.fromkeys(reversed(ctx.ports), oversized)
        )
        with pytest.raises(CongestViolation) as excinfo:
            simulator.run()
        assert excinfo.value.port == self.DEGREE - 1
        assert excinfo.value.bits == payload_bits(oversized)
        assert excinfo.value.budget == simulator.congest.budget

    def test_equal_payloads_of_different_classes_are_each_sized(self):
        """``(1,) == (True,)`` and they hash alike, but their sizes differ:
        reuse goes by identity, so both are sized."""
        as_int, as_bool = (1,), (True,)
        assert as_int == as_bool and payload_bits(as_int) != payload_bits(as_bool)
        simulator, checked = self._hub_run(
            lambda ctx: {
                port: as_int if port % 2 else as_bool for port in ctx.ports
            }
        )
        result = simulator.run()
        assert len(checked) == self.DEGREE
        half = self.DEGREE // 2
        assert result.metrics.total_bits == half * (
            payload_bits(as_int) + payload_bits(as_bool)
        )

    def test_accepted_sends_are_isolated_from_later_mutation(self):
        """The engine copies ``sends`` once, when it accepts the action: a
        dict changed after the yield does not change the message."""
        graph = path_graph(2, seed=0)
        shared = {0: "original"}

        def protocol(ctx):
            if ctx.node_id == 1:
                yield Awake(1)
                yield Awake(5, shared)
                return None
            yield Awake(2)
            shared[0] = "mutated"
            inbox = yield Awake(5)
            return dict(inbox)

        result = simulate(graph, protocol)
        assert shared == {0: "mutated"}
        assert result.node_results[2] == {0: "original"}
