"""The problem registry: bundle resolution, the problem axis, monitors."""

from __future__ import annotations

import pytest

from repro.core import MSTRunResult, RunResult
from repro.invariants import (
    MONITOR_NAMES,
    PROBLEM_MONITORS,
    build_monitor_set,
)
from repro.orchestrator import (
    GRAPH_FAMILIES,
    JobSpec,
    execute_job,
    expand_grid,
)
from repro.problems import (
    DEFAULT_PROBLEM,
    MIS_BUNDLE,
    MST_BUNDLE,
    problem_bundle,
    problem_names,
    resolve_problem,
)


class TestRegistry:
    def test_both_problems_registered_mst_first(self):
        assert problem_names() == ("mst", "mis")
        assert problem_bundle("mst") is MST_BUNDLE
        assert problem_bundle("mis") is MIS_BUNDLE
        assert problem_bundle(None).name == DEFAULT_PROBLEM == "mst"

    def test_resolve_problem_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown problem"):
            resolve_problem("coloring")

    def test_unknown_algorithm_error_lists_diagnostics(self):
        # Satellite: the error must list every resolvable name, the
        # diagnostic runners included, so --algorithm typos are
        # self-serviceable.
        with pytest.raises(ValueError) as excinfo:
            MST_BUNDLE.resolve_algorithm("Quantum-MST")
        message = str(excinfo.value)
        assert "unknown algorithm 'Quantum-MST' for problem 'mst'" in message
        assert "Crashing-MST" in message
        assert "Randomized-MST" in message
        assert "aliases" in message

    def test_mis_aliases_resolve(self):
        assert MIS_BUNDLE.resolve_algorithm("mis") == "Sleeping-MIS"
        assert MIS_BUNDLE.resolve_algorithm("randomized") == "Sleeping-MIS"
        with pytest.raises(ValueError, match="for problem 'mis'"):
            MIS_BUNDLE.resolve_algorithm("deterministic")

    def test_bundle_normalizers_separate(self):
        # log2 n vs log2 log2 n at n=65536: 16 vs 4.
        assert MST_BUNDLE.awake_normalizer(65536) == pytest.approx(16.0)
        assert MIS_BUNDLE.awake_normalizer(65536) == pytest.approx(4.0)


class TestRunResultSurface:
    def test_mst_result_is_problem_generic(self):
        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        runner = MST_BUNDLE.runner("randomized")
        result = runner(graph, 0)
        assert isinstance(result, MSTRunResult)
        assert isinstance(result, RunResult)
        assert result.problem == "mst"
        # is_correct delegates to the legacy is_correct_mst.
        assert result.is_correct(graph) == result.is_correct_mst(graph)

    def test_generic_base_requires_is_correct(self):
        class Bare(RunResult):
            pass

        with pytest.raises(NotImplementedError):
            Bare().is_correct(None)


class TestProblemAxis:
    def test_expand_grid_carries_problem(self):
        specs = expand_grid(
            ["randomized"], ["gnp"], [8], [0, 1], problem="mis"
        )
        assert [spec.algorithm for spec in specs] == ["Sleeping-MIS"] * 2
        assert all(spec.problem == "mis" for spec in specs)

    def test_execute_mis_job_records_problem_and_correctness(self):
        spec = JobSpec.create(
            "mis", "gnp", 8, 0, options={"monitors": "all"}, problem="mis"
        )
        record = execute_job(spec)
        assert record["algorithm"] == "Sleeping-MIS"
        assert record["problem"] == "mis"
        assert record["correct"] is True
        assert record["violations"] == 0
        assert record["monitor_checks"] > 0

    def test_mst_records_have_no_problem_field(self):
        record = execute_job(JobSpec.create("randomized", "ring", 8, 0))
        assert "problem" not in record

    def test_roundtrip_preserves_problem(self):
        spec = JobSpec.create("mis", "gnp", 8, 0, problem="mis")
        assert JobSpec.from_dict(spec.payload()) == spec


class TestMonitorExpansion:
    def test_monitor_names_stay_the_mst_eight(self):
        assert len(MONITOR_NAMES) == 8
        assert PROBLEM_MONITORS["mst"] == MONITOR_NAMES

    def test_all_expands_per_problem(self):
        mst_set = build_monitor_set("all")
        mis_set = build_monitor_set("all", problem="mis")
        assert mst_set.names == MONITOR_NAMES
        assert mis_set.names == PROBLEM_MONITORS["mis"]
        assert "mis-independence" in mis_set.names
        assert "mis-independence" not in mst_set.names

    def test_mis_runner_expands_all_to_the_mis_monitors(self):
        from repro.problems import run_sleeping_mis

        graph = GRAPH_FAMILIES["gnp"](16, 0, None)
        result = run_sleeping_mis(graph, seed=0, monitors="all")
        expected = build_monitor_set("all", problem="mis").names
        assert result.monitors.names == expected
        assert "mis-independence" in result.monitors.names
        assert result.monitors.report.checks_run > 0
        assert result.violations == []

    def test_explicit_mis_monitor_attachable_by_name(self):
        # Subset specs normalize to registry order, problem-independent.
        monitor_set = build_monitor_set("mis-independence,congest-bit-budget")
        assert monitor_set.names == ("congest-bit-budget", "mis-independence")
