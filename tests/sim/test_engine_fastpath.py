"""Regression tests for the engine's round loop.

Covers the hot-path invariants:

* ``metrics.rounds`` is assigned once, from the final populated round, and
  equals the last node's termination round on staggered wake-up schedules;
* the engine maintains ``Metrics.max_awake_running`` incrementally and it
  always equals the O(n) recomputation;
* observers (trace, knowledge, observe) never change a run: results and
  metrics are byte-identical with and without them, on the perfect
  channel and under every fault channel.
"""

from __future__ import annotations

import json

import pytest

from repro.graphs import path_graph, random_connected_graph, ring_graph
from repro.sim import Awake, parse_channel_spec, simulate


def staggered_protocol(ctx):
    """Node v wakes ``v`` times, last at round ``10 * v``: fully staggered."""
    node_id = ctx.node_id
    for i in range(1, node_id + 1):
        yield Awake(10 * i if i < node_id else 10 * node_id,
                    {port: ("s", node_id) for port in ctx.ports})
    return node_id


def chatter_protocol(ctx):
    """Dense rounds with deliveries, losses, and staggered termination."""
    node_id = ctx.node_id
    total = 0
    for i in range(1, 6 + node_id % 3):
        inbox = yield Awake(2 * i + node_id % 2, ctx.broadcast(("c", node_id, i)))
        total += len(inbox)
    return total


def long_chatter_protocol(ctx):
    """Loss-tolerant chatter up to round ~90, late enough for crash:1@40."""
    node_id = ctx.node_id
    total = 0
    for i in range(1, 16 + node_id % 3):
        inbox = yield Awake(5 * i + node_id % 2, ctx.broadcast(("c", node_id, i)))
        total += len(inbox)
    return total


ALL_OBSERVERS = {"trace": True, "observe": True, "track_knowledge": True}


def _observable(result):
    """Everything a run reports that observers must not change."""
    return (
        json.dumps(result.metrics.summary(), sort_keys=True),
        {node: stats.as_dict() for node, stats in result.metrics.per_node.items()},
        result.metrics.crashed_nodes,
        result.node_results,
    )


class TestRoundsAssignment:
    def test_rounds_equals_last_termination_round_staggered(self):
        graph = path_graph(5, seed=0)
        result = simulate(graph, staggered_protocol)
        last_termination = max(
            node.terminated_round for node in result.metrics.per_node.values()
        )
        assert result.metrics.rounds == last_termination
        assert result.metrics.rounds == 10 * max(graph.node_ids)

    def test_rounds_zero_when_everyone_returns_immediately(self):
        def protocol(ctx):
            return ctx.node_id
            yield  # pragma: no cover - generator marker

        result = simulate(path_graph(3, seed=0), protocol)
        assert result.metrics.rounds == 0

    def test_rounds_identical_with_and_without_observers(self):
        graph = ring_graph(8, seed=2)
        plain = simulate(graph, chatter_protocol)
        traced = simulate(graph, chatter_protocol, trace=True)
        assert plain.metrics.rounds == traced.metrics.rounds


class TestRunningMaxAwake:
    @pytest.mark.parametrize("observers", [{}, {"trace": True}, {"observe": True}])
    def test_running_max_equals_recompute(self, observers):
        graph = random_connected_graph(24, seed=5)
        result = simulate(graph, chatter_protocol, seed=1, **observers)
        metrics = result.metrics
        assert metrics.max_awake_running == metrics.recompute_max_awake()
        assert metrics.max_awake == metrics.recompute_max_awake()

    def test_running_max_on_staggered_schedule(self):
        result = simulate(path_graph(6, seed=0), staggered_protocol)
        assert result.metrics.max_awake == 6
        assert result.metrics.max_awake == result.metrics.recompute_max_awake()

    def test_hand_built_metrics_fall_back_to_recompute(self):
        from repro.sim import Metrics

        metrics = Metrics()
        metrics.node(1).awake_rounds = 9
        assert metrics.max_awake_running == 0
        assert metrics.max_awake == 9


class TestFastGeneralEquivalence:
    """Observers never change a run, on any channel.

    Named for the two loop specializations the engine once had; every run
    now shares one loop, and these cases pin that attaching observers
    changes nothing a run reports.
    """

    @pytest.mark.parametrize(
        "observers",
        [
            {"trace": True},
            {"observe": True},
            {"track_knowledge": True},
            {"trace": True, "observe": True, "track_knowledge": True},
        ],
    )
    def test_summaries_byte_identical(self, observers):
        graph = random_connected_graph(20, seed=3)
        fast = simulate(graph, chatter_protocol, seed=4)
        general = simulate(graph, chatter_protocol, seed=4, **observers)
        assert json.dumps(fast.metrics.summary(), sort_keys=True) == json.dumps(
            general.metrics.summary(), sort_keys=True
        )
        assert fast.node_results == general.node_results
        assert {
            node: stats.as_dict() for node, stats in fast.metrics.per_node.items()
        } == {
            node: stats.as_dict()
            for node, stats in general.metrics.per_node.items()
        }

    def test_lenient_congest_violations_counted_identically(self):
        def oversized(ctx):
            yield Awake(1, ctx.broadcast(tuple(range(300))))
            return None

        graph = path_graph(2, seed=0)
        fast = simulate(graph, oversized, strict_congest=False)
        general = simulate(graph, oversized, strict_congest=False, trace=True)
        assert (
            fast.metrics.congest_violations
            == general.metrics.congest_violations
            == 2
        )

    def test_mst_run_identical_across_paths(self):
        from repro.core import run_randomized_mst

        graph = random_connected_graph(32, seed=9)
        fast = run_randomized_mst(graph, seed=2)
        general = run_randomized_mst(graph, seed=2, observe=True, trace=True)
        assert fast.mst_weights == general.mst_weights
        assert fast.metrics.summary() == general.metrics.summary()

    @pytest.mark.parametrize(
        "faults, counter",
        [
            ("drop:0.05", "messages_dropped"),
            ("delay:2", "messages_delayed"),
            ("dup:0.1", "messages_duplicated"),
            ("crash:1@40", "nodes_crashed"),
        ],
    )
    def test_observers_never_change_a_faulted_run(self, faults, counter):
        graph = random_connected_graph(20, seed=3)

        def run(**observers):
            return simulate(
                graph,
                long_chatter_protocol,
                seed=4,
                channel=parse_channel_spec(faults),
                **observers,
            )

        plain = run()
        observed = run(**ALL_OBSERVERS)
        assert plain.metrics.summary()[counter] > 0
        assert _observable(plain) == _observable(observed)

    def test_observers_never_change_a_monitored_run(self):
        from repro.core import run_randomized_mst

        graph = random_connected_graph(24, seed=5)
        plain = run_randomized_mst(graph, seed=1, monitors="all")
        observed = run_randomized_mst(
            graph, seed=1, monitors="all", **ALL_OBSERVERS
        )
        assert plain.monitors.report.checks_run > 0
        assert _observable(plain.simulation) == _observable(observed.simulation)
        assert plain.violations == observed.violations == []
