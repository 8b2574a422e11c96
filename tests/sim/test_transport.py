"""Transport-layer tests: channel models, fault injection, byte-identity.

The acceptance criteria of the transport refactor:

* the default :class:`PerfectChannel` is byte-identical to the
  pre-refactor engine (golden metrics + trace pinned below);
* a seeded fault run is deterministic across repeats;
* injected faults surface in metrics, the obs registry dump, and the
  Chrome trace export;
* message conservation holds under every channel:
  ``delivered + lost + dropped == sent + duplicated``.
"""

from __future__ import annotations

import json
from random import Random

import pytest

from repro.graphs import path_graph, random_connected_graph, ring_graph
from repro.sim import (
    Awake,
    CompositeChannel,
    CrashSchedule,
    DelayChannel,
    DropChannel,
    DuplicateChannel,
    NodeCrashed,
    Outcome,
    PerfectChannel,
    parse_channel_spec,
    simulate,
    validate_channel_spec,
)
from repro.sim.transport import DELIVERED, DROPPED, LOST


def chatter_protocol(ctx):
    """Loss-tolerant chatter: reads its inbox but never requires it."""
    node_id = ctx.node_id
    total = 0
    for i in range(1, 6 + node_id % 3):
        inbox = yield Awake(2 * i + node_id % 2, ctx.broadcast(("c", node_id, i)))
        total += len(inbox)
    return total


def dense_protocol(ctx):
    """Everybody awake every round for a while: maximal channel traffic."""
    node_id = ctx.node_id
    received = 0
    for i in range(1, 12):
        inbox = yield Awake(i, ctx.broadcast(("d", node_id, i)))
        received += len(inbox)
    return received


# ----------------------------------------------------------------------
# Golden byte-identity: the PerfectChannel default vs the pre-transport
# engine.  These constants were captured from the engine at commit
# 90056c2, immediately before the transport layer landed.
# ----------------------------------------------------------------------

GOLDEN_RANDOMIZED_N32 = {
    "awake_round_product": 1010669,
    "congest_violations": 0,
    "max_awake": 139,
    "max_message_bits": 26,
    "mean_awake": 103.0,
    "messages_delivered": 7480,
    "messages_lost": 0,
    "rounds": 7271,
    "total_bits": 122981,
}

GOLDEN_DETERMINISTIC_N16 = {
    "awake_round_product": 740175,
    "congest_violations": 0,
    "max_awake": 75,
    "max_message_bits": 67,
    "mean_awake": 61.5,
    "messages_delivered": 886,
    "messages_lost": 0,
    "rounds": 9869,
    "total_bits": 11660,
}

GOLDEN_TRACE_EVENTS = 18288
GOLDEN_TRACE_KINDS = ["deliver", "send", "terminate", "wake"]
GOLDEN_MST_EDGES = 31
GOLDEN_MST_FIRST_WEIGHTS = [6, 22, 26, 35, 57, 64, 70, 76]


class TestGoldenByteIdentity:
    def test_randomized_mst_summary_unchanged(self):
        from repro.core import run_randomized_mst

        result = run_randomized_mst(random_connected_graph(32, seed=9), seed=2)
        assert result.metrics.summary() == GOLDEN_RANDOMIZED_N32
        assert len(result.mst_weights) == GOLDEN_MST_EDGES
        assert sorted(result.mst_weights)[:8] == GOLDEN_MST_FIRST_WEIGHTS

    def test_deterministic_mst_summary_unchanged(self):
        from repro.core import run_deterministic_mst

        result = run_deterministic_mst(ring_graph(16, seed=3))
        assert result.metrics.summary() == GOLDEN_DETERMINISTIC_N16

    def test_traced_run_unchanged(self):
        from repro.core import run_randomized_mst

        result = run_randomized_mst(
            random_connected_graph(32, seed=9), seed=2, trace=True
        )
        trace = result.simulation.trace
        assert len(trace.events) == GOLDEN_TRACE_EVENTS
        assert sorted({event.kind for event in trace.events}) == GOLDEN_TRACE_KINDS
        assert result.metrics.summary() == GOLDEN_RANDOMIZED_N32

    def test_explicit_perfect_channel_matches_default(self):
        graph = random_connected_graph(20, seed=3)
        default = simulate(graph, chatter_protocol, seed=4)
        explicit = simulate(graph, chatter_protocol, seed=4, channel=PerfectChannel())
        assert default.metrics.summary() == explicit.metrics.summary()
        assert default.node_results == explicit.node_results

    def test_fault_free_summary_has_no_fault_keys(self):
        result = simulate(ring_graph(6, seed=0), chatter_protocol)
        assert "messages_dropped" not in result.metrics.summary()
        assert not result.metrics.faults_observed


# ----------------------------------------------------------------------
# Channel-model unit behaviour
# ----------------------------------------------------------------------

class TestChannelModels:
    def test_perfect_channel_applies_sleeping_policy(self):
        channel = PerfectChannel()
        assert channel.deliver(1, 1, 0, "x", 4, True) is DELIVERED
        assert channel.deliver(1, 1, 0, "x", 4, False) is LOST
        assert channel.is_perfect

    def test_drop_channel_is_seeded_and_bounded(self):
        channel = DropChannel(0.5, rng=Random(7))
        outcomes = [
            channel.deliver(1, 1, 0, "x", 4, True).kind for _ in range(64)
        ]
        assert set(outcomes) == {"deliver", "drop"}
        repeat = DropChannel(0.5, rng=Random(7))
        assert outcomes == [
            repeat.deliver(1, 1, 0, "x", 4, True).kind for _ in range(64)
        ]

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_drop_probability_validated(self, bad):
        with pytest.raises(ValueError):
            DropChannel(bad)

    def test_delay_channel_schedules_future_round(self):
        channel = DelayChannel(3, rng=Random(1))
        kinds = set()
        for _ in range(64):
            outcome = channel.deliver(10, 1, 0, "x", 4, True)
            kinds.add(outcome.kind)
            if outcome.kind == "delay":
                assert 11 <= outcome.deliver_round <= 13
        assert kinds == {"deliver", "delay"}
        assert DelayChannel(0).deliver(5, 1, 0, "x", 4, False) is LOST

    def test_duplicate_channel_tags_duplicate_round(self):
        channel = DuplicateChannel(1.0, lag=2)
        channel.reset([1, 2], Random(0))
        outcome = channel.deliver(7, 1, 0, "x", 4, True)
        assert outcome.kind == "deliver"
        assert outcome.duplicate_round == 9

    def test_crash_schedule_explicit_plan(self):
        channel = CrashSchedule({3: 10, 5: 20})
        channel.reset([1, 3, 5], Random(0))
        assert channel.crash_round(3) == 10
        assert channel.crash_round(5) == 20
        assert channel.crash_round(1) is None

    def test_crash_schedule_random_victims_deterministic(self):
        first = CrashSchedule.random(2, 50)
        first.reset(list(range(1, 11)), Random("seed/transport"))
        second = CrashSchedule.random(2, 50)
        second.reset(list(range(1, 11)), Random("seed/transport"))
        assert first.plan == second.plan
        assert len(first.plan) == 2
        assert all(round_number == 50 for round_number in first.plan.values())

    def test_composite_first_fault_wins_and_crashes_merge(self):
        composite = CompositeChannel(
            [DropChannel(1.0), DelayChannel(3), CrashSchedule({2: 5})]
        )
        composite.reset([1, 2], Random(0))
        assert composite.deliver(1, 1, 0, "x", 4, True) is DROPPED
        assert composite.crash_round(2) == 5
        assert composite.crash_round(1) is None

    def test_outcome_is_frozen(self):
        outcome = Outcome("deliver")
        with pytest.raises(Exception):
            outcome.kind = "drop"


class TestChannelSpecs:
    @pytest.mark.parametrize("spec", [None, "", "perfect", " perfect "])
    def test_perfect_spellings(self, spec):
        assert parse_channel_spec(spec).is_perfect
        assert validate_channel_spec(spec) is None

    def test_each_kind_parses(self):
        assert isinstance(parse_channel_spec("drop:0.05"), DropChannel)
        assert isinstance(parse_channel_spec("delay:3"), DelayChannel)
        assert isinstance(parse_channel_spec("dup:0.1"), DuplicateChannel)
        assert isinstance(parse_channel_spec("crash:2@50"), CrashSchedule)
        assert isinstance(
            parse_channel_spec("drop:0.01+crash:1@40"), CompositeChannel
        )

    @pytest.mark.parametrize(
        "spec", ["bogus:1", "drop:2", "delay:-1", "crash:2", "dup:-0.5"]
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            parse_channel_spec(spec)


# ----------------------------------------------------------------------
# Engine integration: faults in metrics, obs dump, and Chrome trace
# ----------------------------------------------------------------------

class TestFaultInjection:
    def test_seeded_drop_run_deterministic_and_counted(self):
        graph = random_connected_graph(16, seed=2)
        runs = [
            simulate(graph, chatter_protocol, seed=5, channel=DropChannel(0.2))
            for _ in range(2)
        ]
        assert runs[0].metrics.summary() == runs[1].metrics.summary()
        assert runs[0].node_results == runs[1].node_results
        assert runs[0].metrics.messages_dropped > 0
        assert runs[0].metrics.summary()["messages_dropped"] > 0

    def test_drop_faults_surface_in_obs_dump_and_chrome_trace(self):
        from repro.obs import chrome_trace, validate_chrome_trace

        graph = random_connected_graph(16, seed=2)
        result = simulate(
            graph,
            chatter_protocol,
            seed=5,
            channel=DropChannel(0.2),
            trace=True,
            observe=True,
        )
        dropped = result.metrics.messages_dropped
        assert dropped > 0

        dump = result.obs.registry.dump()
        drop_keys = [key for key in dump if "dropped" in key]
        assert drop_keys and dump[drop_keys[0]] == dropped

        payload = chrome_trace(spans=result.spans, trace=result.trace)
        validate_chrome_trace(payload)
        fault_events = [
            event
            for event in payload["traceEvents"]
            if event.get("cat") == "fault"
        ]
        assert len(fault_events) == dropped
        assert {event["name"] for event in fault_events} == {"drop"}

    def test_drop_conservation(self):
        graph = random_connected_graph(16, seed=2)
        result = simulate(graph, chatter_protocol, seed=5, channel=DropChannel(0.2))
        metrics = result.metrics
        sent = sum(node.messages_sent for node in metrics.per_node.values())
        assert (
            metrics.messages_delivered
            + metrics.messages_lost
            + metrics.messages_dropped
            == sent
        )

    def test_delay_delivers_to_awake_receivers(self):
        graph = ring_graph(8, seed=1)
        result = simulate(
            graph, dense_protocol, seed=0, channel=DelayChannel(2), trace=True
        )
        metrics = result.metrics
        assert metrics.messages_delayed > 0
        # Dense protocol: receivers are awake for rounds 1..11, so many
        # delayed copies still land.
        assert metrics.messages_delivered > 0
        sent = sum(node.messages_sent for node in metrics.per_node.values())
        assert (
            metrics.messages_delivered + metrics.messages_lost == sent
        )  # no drops: delays resolve to deliver-or-lose
        kinds = {event.kind for event in result.trace.events}
        assert "delay" in kinds

    def test_leftover_delayed_messages_drain_to_losses(self):
        def one_shot(ctx):
            yield Awake(1, ctx.broadcast(("only", ctx.node_id)))
            return None

        graph = path_graph(3, seed=0)
        # max_delay high enough that every delayed copy outlives round 1.
        result = simulate(
            graph, one_shot, seed=0, channel=DelayChannel(5, rng=Random(3))
        )
        metrics = result.metrics
        sent = sum(node.messages_sent for node in metrics.per_node.values())
        assert metrics.messages_delivered + metrics.messages_lost == sent

    def test_duplicate_conservation_and_counters(self):
        graph = random_connected_graph(16, seed=2)
        result = simulate(
            graph, dense_protocol, seed=5, channel=DuplicateChannel(0.5)
        )
        metrics = result.metrics
        assert metrics.messages_duplicated > 0
        sent = sum(node.messages_sent for node in metrics.per_node.values())
        assert (
            metrics.messages_delivered + metrics.messages_lost
            == sent + metrics.messages_duplicated
        )

    def test_crash_stops_node_before_transmitting(self):
        graph = ring_graph(6, seed=1)
        result = simulate(
            graph, dense_protocol, seed=0, channel=CrashSchedule({2: 4}), trace=True
        )
        metrics = result.metrics
        assert metrics.nodes_crashed == 1
        assert metrics.crashed_nodes == {2: 4}
        assert 2 not in result.node_results
        assert set(result.node_results) == set(graph.node_ids) - {2}
        # The node was awake in rounds 1..3 only.
        assert metrics.per_node[2].awake_rounds == 3
        crash_events = [e for e in result.trace.events if e.kind == "crash"]
        assert [(e.round, e.node) for e in crash_events] == [(4, 2)]

    def test_random_crash_victims_deterministic_across_repeats(self):
        graph = random_connected_graph(16, seed=7)
        runs = [
            simulate(
                graph,
                dense_protocol,
                seed=3,
                channel=parse_channel_spec("crash:2@5"),
            )
            for _ in range(2)
        ]
        assert runs[0].metrics.crashed_nodes == runs[1].metrics.crashed_nodes
        assert runs[0].metrics.nodes_crashed == 2

    def test_summary_gains_fault_keys_only_under_faults(self):
        graph = ring_graph(6, seed=1)
        faulted = simulate(
            graph, dense_protocol, seed=0, channel=DropChannel(0.5)
        )
        summary = faulted.metrics.summary()
        for key in (
            "messages_dropped",
            "messages_delayed",
            "messages_duplicated",
            "nodes_crashed",
        ):
            assert key in summary

    def test_fault_trace_round_trips_through_replay(self, tmp_path):
        from repro.sim import load_trace, save_trace

        graph = ring_graph(8, seed=1)
        result = simulate(
            graph, dense_protocol, seed=0, channel=DelayChannel(2), trace=True
        )
        path = tmp_path / "fault-trace.jsonl"
        save_trace(result, path)
        loaded = load_trace(path)
        assert [e.kind for e in loaded.trace.events] == [
            e.kind for e in result.trace.events
        ]


# ----------------------------------------------------------------------
# Non-strict congest accounting across loops and channels (satellite)
# ----------------------------------------------------------------------

class TestLenientCongestAcrossTransport:
    def oversized_protocol(self, ctx):
        node_id = ctx.node_id
        for i in range(1, 4):
            yield Awake(i, ctx.broadcast(tuple(range(200)) + (node_id,)))
        return None

    def test_fast_and_general_count_violations_identically(self):
        graph = ring_graph(6, seed=0)
        fast = simulate(graph, self.oversized_protocol, strict_congest=False)
        for observers in ({"trace": True}, {"observe": True}):
            general = simulate(
                graph, self.oversized_protocol, strict_congest=False, **observers
            )
            assert (
                fast.metrics.congest_violations
                == general.metrics.congest_violations
                > 0
            )
            assert json.dumps(
                fast.metrics.summary(), sort_keys=True
            ) == json.dumps(general.metrics.summary(), sort_keys=True)

    def test_violations_counted_under_fault_channels(self):
        graph = ring_graph(6, seed=0)
        plain = simulate(graph, self.oversized_protocol, strict_congest=False)
        dropped = simulate(
            graph,
            self.oversized_protocol,
            strict_congest=False,
            channel=DropChannel(0.3),
        )
        # Congest accounting happens send-side, before the channel decides
        # the message's fate, so violation counts match exactly.
        assert (
            dropped.metrics.congest_violations
            == plain.metrics.congest_violations
            > 0
        )


# ----------------------------------------------------------------------
# NodeCrashed carries the innermost open span (satellite)
# ----------------------------------------------------------------------

class TestNodeCrashedSpan:
    @staticmethod
    def exploding_protocol(ctx):
        with ctx.span("phase", 3):
            with ctx.span("block:upcast_moe"):
                yield Awake(1, {})
                raise RuntimeError("boom")

    def test_span_attached_when_observed(self):
        with pytest.raises(NodeCrashed) as info:
            simulate(path_graph(2, seed=0), self.exploding_protocol, observe=True)
        assert info.value.span == "phase:3/block:upcast_moe"
        assert "phase:3/block:upcast_moe" in str(info.value)
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_span_none_when_unobserved(self):
        with pytest.raises(NodeCrashed) as info:
            simulate(path_graph(2, seed=0), self.exploding_protocol)
        assert info.value.span is None
        assert "in span" not in str(info.value)
