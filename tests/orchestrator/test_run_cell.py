"""``run_cell``: the one graph → monitors → faults → run sequence."""

from __future__ import annotations

import pytest

from repro.orchestrator import (
    FAULT_MAX_AWAKE_EVENTS,
    JobSpec,
    execute_with_policy,
    expand_grid,
    run_cell,
)


def cell_spec(**kwargs):
    (spec,) = expand_grid(
        algorithms=[kwargs.pop("algorithm", "randomized")],
        families=["gnp"],
        sizes=[16],
        seeds=[1],
        **kwargs,
    )
    return spec


class TestRunCell:
    def test_plain_cell(self):
        spec = cell_spec()
        cell = run_cell(spec)
        assert cell.spec is spec
        assert cell.graph.n == 16
        assert cell.result.is_correct(cell.graph)
        assert cell.diagnosis is None
        assert cell.monitor_set is None
        assert cell.faults is None

    def test_sim_kwargs_never_enter_the_spec(self):
        spec = cell_spec()
        key = spec.key
        cell = run_cell(spec, observe=True, trace=True)
        assert spec.key == key
        assert cell.result.spans is not None
        assert cell.result.simulation.trace is not None
        assert run_cell(spec).result.spans is None

    def test_monitors_attach_per_problem(self):
        cell = run_cell(cell_spec(monitors="all", problem="mis"))
        assert "mis-independence" in cell.monitor_set.names
        assert cell.monitor_set.report.ok()

    def test_faulted_cell_is_diagnosed_with_the_awake_cap(self, monkeypatch):
        seen = {}
        from repro.problems.mst import ALGORITHMS

        original = ALGORITHMS["Randomized-MST"]

        def spy(graph, seed, **options):
            seen.update(options)
            return original(graph, seed, **options)

        monkeypatch.setitem(ALGORITHMS, "Randomized-MST", spy)
        cell = run_cell(cell_spec(faults=["dup:0.1"]))
        assert cell.faults == "dup:0.1"
        assert cell.diagnosis.outcome == "correct"
        assert cell.result is cell.diagnosis.result
        assert seen["max_awake_events"] == FAULT_MAX_AWAKE_EVENTS

    def test_crashed_cell_keeps_no_result(self):
        cell = run_cell(cell_spec(faults=["crash:2@10"]))
        assert cell.diagnosis.outcome == "detected_wrong"
        assert cell.result is None

    def test_diagnose_on_the_perfect_channel(self):
        cell = run_cell(cell_spec(), diagnose=True)
        assert cell.diagnosis.outcome == "correct"
        assert cell.faults is None

    def test_undiagnosed_exception_propagates(self):
        spec = JobSpec.create("crashing", "gnp", 16, 1)
        with pytest.raises(RuntimeError, match="always fails"):
            run_cell(spec)
        record = execute_with_policy(spec)
        assert record.status == "failed"
        assert "always fails" in record.error
