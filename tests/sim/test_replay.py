"""Trace serialization round-trips."""

from __future__ import annotations

import pytest

from repro.core import run_randomized_mst
from repro.graphs import path_graph, ring_graph
from repro.sim import Awake, load_trace, save_trace, simulate


class TestRoundTrip:
    def test_events_survive(self, tmp_path):
        graph = path_graph(3, seed=1)

        def protocol(ctx):
            inbox = yield Awake(1, ctx.broadcast(("tag", ctx.node_id)))
            return len(inbox)

        result = simulate(graph, protocol, trace=True)
        target = tmp_path / "run.jsonl"
        written = save_trace(result, target)
        loaded = load_trace(target)
        assert written == len(loaded.trace) == len(result.trace)
        original = [(e.round, e.kind, e.node, e.peer, e.detail) for e in result.trace]
        restored = [(e.round, e.kind, e.node, e.peer, e.detail) for e in loaded.trace]
        assert original == restored  # tuples restored from JSON lists

    def test_metrics_summary_saved(self, tmp_path):
        graph = ring_graph(6, seed=2)
        result = run_randomized_mst(graph, seed=0, trace=True)
        target = tmp_path / "mst.jsonl"
        save_trace(result.simulation, target)
        loaded = load_trace(target)
        assert loaded.metrics_summary["rounds"] == result.metrics.rounds
        assert loaded.metrics_summary["max_awake"] == result.metrics.max_awake

    def test_untraced_run_rejected(self, tmp_path):
        graph = path_graph(2, seed=3)

        def protocol(ctx):
            yield Awake(1)
            return None

        result = simulate(graph, protocol)
        with pytest.raises(ValueError, match="trace=True"):
            save_trace(result, tmp_path / "x.jsonl")

    def test_corrupt_header_rejected(self, tmp_path):
        target = tmp_path / "bad.jsonl"
        target.write_text('{"format": 99, "events": 0, "metrics": {}}\n')
        with pytest.raises(ValueError, match="unsupported format"):
            load_trace(target)

    def test_truncated_file_rejected(self, tmp_path):
        target = tmp_path / "short.jsonl"
        target.write_text('{"format": 1, "events": 5, "metrics": {}}\n')
        with pytest.raises(ValueError, match="promises 5 events"):
            load_trace(target)

    def test_empty_file_rejected(self, tmp_path):
        target = tmp_path / "empty.jsonl"
        target.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_trace(target)


class TestFaultHeaderV2:
    @staticmethod
    def chatty(rounds=50):
        """A protocol that keeps transmitting so faults have targets."""

        def protocol(ctx):
            for r in range(1, rounds):
                yield Awake(r, ctx.broadcast(("ping", r)))
            return None

        return protocol

    def test_fault_counters_round_trip(self, tmp_path):
        from repro.sim.transport import parse_channel_spec

        graph = ring_graph(8, seed=2)
        result = simulate(
            graph, self.chatty(), trace=True,
            channel=parse_channel_spec("drop:0.2"),
        )
        target = tmp_path / "faulted.jsonl"
        save_trace(result, target)
        loaded = load_trace(target)
        assert loaded.format_version == 2
        assert loaded.fault_summary == result.metrics.fault_summary()
        assert loaded.fault_summary["messages_dropped"] > 0
        assert loaded.faults_observed

    def test_crashed_nodes_restore_int_keys(self, tmp_path):
        from repro.sim import CrashSchedule

        graph = ring_graph(8, seed=2)
        result = simulate(
            graph, self.chatty(), trace=True,
            channel=CrashSchedule.random(1, 30),
        )
        target = tmp_path / "crashed.jsonl"
        save_trace(result, target)
        loaded = load_trace(target)
        assert loaded.crashed_nodes == result.metrics.crashed_nodes
        assert loaded.crashed_nodes
        assert all(isinstance(node, int) for node in loaded.crashed_nodes)
        assert loaded.faults_observed

    def test_clean_run_records_zero_faults(self, tmp_path):
        graph = ring_graph(6, seed=2)
        result = run_randomized_mst(graph, seed=0, trace=True)
        target = tmp_path / "clean.jsonl"
        save_trace(result.simulation, target)
        loaded = load_trace(target)
        assert loaded.format_version == 2
        assert not loaded.faults_observed
        assert loaded.crashed_nodes == {}

    def test_v1_file_loads_with_empty_fault_data(self, tmp_path):
        target = tmp_path / "v1.jsonl"
        target.write_text('{"format": 1, "events": 0, "metrics": {}}\n')
        loaded = load_trace(target)
        assert loaded.format_version == 1
        assert loaded.fault_summary == {}
        assert loaded.crashed_nodes == {}
        assert not loaded.faults_observed
