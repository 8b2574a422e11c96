"""Output-convention and structural validation helpers."""

from __future__ import annotations

import pytest

from repro.graphs import (
    DIAGNOSIS_OUTCOMES,
    MSTDiagnosis,
    WeightedGraph,
    check_local_mst_outputs,
    mst_weight_set,
    path_graph,
    require_connected,
    require_sleeping_model_inputs,
    ring_graph,
    tree_depths,
    verify_or_diagnose,
)


def outputs_from_mst(graph):
    """The honest per-node output for the true MST."""
    mst = mst_weight_set(graph)
    return {
        node: {
            weight
            for (_, _, weight) in graph.ports_of(node).values()
            if weight in mst
        }
        for node in graph.node_ids
    }


class TestRequireChecks:
    def test_connected_passes(self):
        require_connected(ring_graph(5))

    def test_disconnected_rejected(self):
        graph = WeightedGraph([1, 2, 3, 4], [(1, 2, 1), (3, 4, 2)])
        with pytest.raises(ValueError, match="connected"):
            require_connected(graph)

    def test_full_input_model(self):
        require_sleeping_model_inputs(ring_graph(6, seed=1))


class TestLocalOutputs:
    def test_accepts_consistent_outputs(self):
        graph = ring_graph(8, seed=2)
        union = check_local_mst_outputs(graph, outputs_from_mst(graph))
        assert union == mst_weight_set(graph)

    def test_rejects_missing_node(self):
        graph = ring_graph(5, seed=1)
        outputs = outputs_from_mst(graph)
        outputs.pop(graph.node_ids[0])
        with pytest.raises(AssertionError, match="missing"):
            check_local_mst_outputs(graph, outputs)

    def test_rejects_non_incident_weight(self):
        graph = path_graph(4, seed=1)
        outputs = outputs_from_mst(graph)
        outputs[graph.node_ids[0]] = set(outputs[graph.node_ids[0]]) | {999}
        with pytest.raises(AssertionError, match="non-incident"):
            check_local_mst_outputs(graph, outputs)

    def test_rejects_endpoint_disagreement(self):
        graph = path_graph(4, seed=1)
        outputs = {node: set(weights) for node, weights in outputs_from_mst(graph).items()}
        edge = graph.edges()[0]
        outputs[edge.u].discard(edge.weight)
        with pytest.raises(AssertionError, match="disagree"):
            check_local_mst_outputs(graph, outputs)


class TestTreeDepths:
    def test_depths_of_chain(self):
        parents = {2: 1, 3: 2, 4: 3}
        assert tree_depths(parents, root=1) == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_depths_of_star(self):
        parents = {2: 1, 3: 1, 4: 1}
        depths = tree_depths(parents, root=1)
        assert depths[1] == 0 and all(depths[i] == 1 for i in (2, 3, 4))

    def test_cycle_detected(self):
        parents = {1: 2, 2: 1}
        with pytest.raises(AssertionError):
            tree_depths(parents, root=3)


class _FakeResult:
    def __init__(self, correct: bool):
        self._correct = correct

    def is_correct_mst(self, graph) -> bool:
        return self._correct


class TestVerifyOrDiagnose:
    """The fault-injection oracle: all four outcomes, plus real runs."""

    def test_correct(self):
        graph = ring_graph(6, seed=1)
        diagnosis = verify_or_diagnose(graph, lambda: _FakeResult(True))
        assert diagnosis.outcome == "correct"
        assert diagnosis.completed
        assert diagnosis.error is None
        assert diagnosis.result is not None

    def test_silent_wrong(self):
        graph = ring_graph(6, seed=1)
        diagnosis = verify_or_diagnose(graph, lambda: _FakeResult(False))
        assert diagnosis.outcome == "silent_wrong"
        assert diagnosis.completed  # terminated cleanly, just wrong

    def test_detected_wrong_from_simulation_error(self):
        from repro.sim.errors import SimulationError

        def boom():
            raise SimulationError("node 3 crashed")

        diagnosis = verify_or_diagnose(ring_graph(6, seed=1), boom)
        assert diagnosis.outcome == "detected_wrong"
        assert not diagnosis.completed
        assert "node 3 crashed" in diagnosis.error
        assert diagnosis.result is None

    def test_detected_wrong_from_output_convention(self):
        def bad_outputs():
            raise AssertionError("nodes missing MST output: [3]")

        diagnosis = verify_or_diagnose(ring_graph(6, seed=1), bad_outputs)
        assert diagnosis.outcome == "detected_wrong"

    def test_hung(self):
        from repro.sim.errors import SimulationLimitExceeded

        def spin():
            raise SimulationLimitExceeded("round 1001 exceeds max_rounds=1000")

        diagnosis = verify_or_diagnose(ring_graph(6, seed=1), spin)
        assert diagnosis.outcome == "hung"
        assert not diagnosis.completed

    def test_unexpected_exceptions_propagate(self):
        def broken():
            raise OSError("disk on fire")

        with pytest.raises(OSError):
            verify_or_diagnose(ring_graph(6, seed=1), broken)

    def test_rejected_configuration_propagates(self):
        # A ValueError comes from before the first round (the engine wraps
        # protocol errors in NodeCrashed): the caller's error, not an outcome.
        from repro.core import run_deterministic_mst

        graph = ring_graph(6, seed=1)
        with pytest.raises(ValueError, match="termination='adaptive'"):
            verify_or_diagnose(
                graph, lambda: run_deterministic_mst(graph, termination="fixed")
            )

    def test_outcomes_tuple_covers_all(self):
        assert set(DIAGNOSIS_OUTCOMES) == {
            "correct",
            "detected_wrong",
            "silent_wrong",
            "hung",
        }
        assert MSTDiagnosis("correct").completed
        assert not MSTDiagnosis("hung").completed

    def test_real_run_perfect_channel_is_correct(self):
        from repro.core import run_randomized_mst

        graph = ring_graph(8, seed=2)
        diagnosis = verify_or_diagnose(
            graph, lambda: run_randomized_mst(graph, seed=0)
        )
        assert diagnosis.outcome == "correct"
        assert diagnosis.result.is_correct_mst(graph)

    def test_real_run_crash_schedule_is_detected(self):
        from repro.core import run_randomized_mst
        from repro.sim import CrashSchedule

        graph = ring_graph(8, seed=2)
        diagnosis = verify_or_diagnose(
            graph,
            lambda: run_randomized_mst(
                graph, seed=0, channel=CrashSchedule.random(2, 50)
            ),
        )
        assert diagnosis.outcome in ("detected_wrong", "hung")
        assert diagnosis.error


class TestOutputHoles:
    def test_missing_nodes_carried_on_error(self):
        from repro.graphs import MSTOutputError

        graph = ring_graph(5, seed=1)
        outputs = outputs_from_mst(graph)
        victim = graph.node_ids[0]
        outputs.pop(victim)
        with pytest.raises(MSTOutputError) as excinfo:
            check_local_mst_outputs(graph, outputs)
        assert excinfo.value.missing == (victim,)

    def test_diagnosis_surfaces_missing_nodes(self):
        from repro.graphs import MSTOutputError

        def hole():
            raise MSTOutputError("nodes missing MST output: [3]", missing=(3,))

        diagnosis = verify_or_diagnose(ring_graph(6, seed=1), hole)
        assert diagnosis.outcome == "detected_wrong"
        assert diagnosis.missing_nodes == (3,)

    def test_diagnosis_default_fields(self):
        diagnosis = MSTDiagnosis("correct")
        assert diagnosis.missing_nodes == ()
        assert diagnosis.crashed_nodes == ()
        assert diagnosis.first_invariant is None
        assert diagnosis.violations == 0


class TestDiagnosisMonitors:
    def test_monitors_finalized_on_crash_path(self):
        """A run that dies mid-protocol still yields a monitor verdict."""
        from repro.invariants import build_monitor_set
        from repro.sim.errors import SimulationError

        graph = ring_graph(4, seed=1)
        monitors = build_monitor_set("all")
        monitors.attach(graph, sorted(graph.node_ids), seed=0)

        def boom():
            raise SimulationError("node 2 crashed")

        diagnosis = verify_or_diagnose(graph, boom, monitors=monitors)
        assert diagnosis.outcome == "detected_wrong"
        assert diagnosis.violations == 0
        assert diagnosis.first_invariant is None
        # finalize really ran (and is idempotent afterwards).
        assert monitors.finalize() is monitors.report
