"""End-to-end monitor attachment: clean runs are violation-free, monitors
change nothing observable, and faulted runs name the first broken lemma."""

from __future__ import annotations

import pytest

from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import (
    mst_weight_set,
    random_connected_graph,
    ring_graph,
    verify_or_diagnose,
)
from repro.invariants import build_monitor_set
from repro.orchestrator import GRAPH_FAMILIES
from repro.orchestrator.jobs import FAULT_MAX_AWAKE_EVENTS
from repro.sim.transport import parse_channel_spec

RUNNERS = {
    "randomized": run_randomized_mst,
    "deterministic": run_deterministic_mst,
}


class TestCleanRuns:
    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_perfect_channel_has_zero_violations(self, algorithm):
        graph = random_connected_graph(20, 0.25, seed=11)
        monitors = build_monitor_set("all")
        result = RUNNERS[algorithm](graph, seed=2, monitors=monitors)
        assert result.mst_weights == mst_weight_set(graph)
        report = monitors.report
        assert report.ok(), report.summary()
        assert report.checks_run > 0
        assert report.incomplete_groups == []
        assert result.monitors is monitors
        assert result.violations == []

    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_string_spec_accepted_by_runner(self, algorithm):
        graph = ring_graph(10, seed=3)
        result = RUNNERS[algorithm](graph, seed=0, monitors="all")
        assert result.monitors is not None
        assert result.monitors.report.checks_run > 0
        assert result.violations == []

    def test_detached_monitors_are_free(self):
        assert RUNNERS["randomized"](
            ring_graph(6, seed=1), seed=0
        ).monitors is None


class TestByteIdentity:
    """Attaching monitors must not perturb the simulation itself."""

    @pytest.mark.parametrize("algorithm", sorted(RUNNERS))
    def test_metrics_and_tree_identical(self, algorithm):
        graph = random_connected_graph(16, 0.3, seed=7)
        bare = RUNNERS[algorithm](graph, seed=5)
        watched = RUNNERS[algorithm](
            graph, seed=5, monitors=build_monitor_set("all")
        )
        assert watched.mst_weights == bare.mst_weights
        assert watched.metrics.summary() == bare.metrics.summary()


class TestFaultedDiagnosis:
    def run_cell(self, drop, seed, monitors):
        graph = GRAPH_FAMILIES["gnp"](24, seed, None)
        channel = parse_channel_spec(f"drop:{drop}")
        return graph, verify_or_diagnose(
            graph,
            lambda: run_randomized_mst(
                graph,
                seed=seed,
                monitors=monitors,
                channel=channel,
                max_awake_events=FAULT_MAX_AWAKE_EVENTS,
            ),
            monitors=monitors,
        )

    def test_first_failing_invariant_named(self):
        monitors = build_monitor_set("all")
        _, diagnosis = self.run_cell("0.02", 3, monitors)
        assert diagnosis.outcome == "detected_wrong"
        assert diagnosis.first_invariant == "star-merge"
        assert diagnosis.violations >= 1
        assert monitors.report.first is not None
        assert "no member owns that edge" in monitors.report.first.message

    def test_crash_produces_output_hole(self):
        _, diagnosis = self.run_cell("0.02", 3, build_monitor_set("all"))
        assert diagnosis.crashed_nodes == (4,)

    def test_finalize_happens_despite_crash(self):
        """verify_or_diagnose must finalize monitors the engine never
        finished with; incomplete probe groups are filed, not lost."""
        monitors = build_monitor_set("all")
        self.run_cell("0.02", 3, monitors)
        report = monitors.finalize()
        assert report.checks_run > 0


class TestCrashFaults:
    def test_crash_leaves_an_output_hole(self):
        """crash:1@40 kills one seeded-random node; the diagnosis must
        surface the node(s) that never produced an MST output."""
        graph = GRAPH_FAMILIES["gnp"](16, 0, None)
        monitors = build_monitor_set("all")
        diagnosis = verify_or_diagnose(
            graph,
            lambda: run_randomized_mst(
                graph,
                seed=0,
                monitors=monitors,
                channel=parse_channel_spec("crash:1@40"),
                max_awake_events=FAULT_MAX_AWAKE_EVENTS,
            ),
            monitors=monitors,
        )
        assert diagnosis.outcome == "detected_wrong"
        assert diagnosis.missing_nodes != ()
        assert "missing MST output" in diagnosis.error
        assert set(diagnosis.missing_nodes) <= set(graph.node_ids)
