"""The ``--faults`` grid axis: spec resolution, hashing, fault records."""

from __future__ import annotations

import pytest

from repro.orchestrator import (
    FAULT_MAX_AWAKE_EVENTS,
    JobSpec,
    execute_job,
    expand_grid,
)
from repro.sim import DropChannel, PerfectChannel
from repro.sim.transport import parse_channel_spec, validate_channel_spec


class TestResolveChannelSpec:
    @pytest.mark.parametrize("spec", [None, "", "perfect"])
    def test_perfect_normalizes_to_none(self, spec):
        assert validate_channel_spec(spec) is None

    def test_fault_spec_normalized(self):
        assert validate_channel_spec(" drop:0.05 ") == "drop:0.05"

    def test_bad_spec_lists_examples(self):
        with pytest.raises(ValueError, match="examples:"):
            validate_channel_spec("gamma-rays:9000")

    def test_channel_from_spec(self):
        assert isinstance(parse_channel_spec(None), PerfectChannel)
        assert isinstance(parse_channel_spec("drop:0.05"), DropChannel)


class TestFaultAxis:
    def test_faults_expand_innermost(self):
        specs = expand_grid(
            ["randomized"], ["ring"], [8], [0, 1], faults=["perfect", "drop:0.1"]
        )
        assert len(specs) == 4
        assert [dict(spec.options).get("faults") for spec in specs] == [
            None,
            "drop:0.1",
            None,
            "drop:0.1",
        ]

    def test_perfect_cells_hash_like_pre_transport_grids(self):
        # The fault axis must not perturb fault-free cache keys: a grid
        # with an explicit "perfect" entry yields the same JobSpec keys
        # as a grid with no fault axis at all.
        plain = expand_grid(["randomized"], ["ring"], [8], [0])
        with_axis = expand_grid(
            ["randomized"], ["ring"], [8], [0], faults=["perfect"]
        )
        assert [s.key for s in plain] == [s.key for s in with_axis]

    def test_fault_cells_hash_differently_per_spec(self):
        keys = {
            spec.key
            for spec in expand_grid(
                ["randomized"],
                ["ring"],
                [8],
                [0],
                faults=["perfect", "drop:0.1", "drop:0.2", "crash:1@30"],
            )
        }
        assert len(keys) == 4

    def test_bad_fault_spec_rejected_at_expansion(self):
        with pytest.raises(ValueError, match="examples:"):
            expand_grid(["randomized"], ["ring"], [8], [0], faults=["drop:2"])


class TestExecuteFaultJob:
    def test_fault_free_record_shape_unchanged(self):
        record = execute_job(JobSpec.create("randomized", "ring", 8, 0))
        assert "faults" not in record
        assert "outcome" not in record
        assert record["correct"] is True

    def test_correct_fault_record_carries_counters(self):
        # Duplication is survivable: the run completes and is correct.
        record = execute_job(
            JobSpec.create(
                "randomized", "ring", 8, 0, options={"faults": "dup:0.2"}
            )
        )
        assert record["faults"] == "dup:0.2"
        assert record["outcome"] == "correct"
        assert record["correct"] is True
        assert record["error"] is None
        assert record["messages_duplicated"] > 0
        assert record["rounds"] > 0

    def test_failed_fault_record_keeps_shape_with_none_metrics(self):
        record = execute_job(
            JobSpec.create(
                "randomized", "ring", 8, 0, options={"faults": "crash:2@10"}
            )
        )
        assert record["faults"] == "crash:2@10"
        assert record["outcome"] in ("detected_wrong", "hung", "silent_wrong")
        assert record["correct"] is False
        assert record["error"]
        assert record["rounds"] is None and record["max_awake"] is None

    def test_fault_jobs_deterministic(self):
        spec = JobSpec.create(
            "randomized", "ring", 8, 1, options={"faults": "drop:0.02"}
        )
        assert execute_job(spec) == execute_job(spec)

    def test_fault_jobs_get_awake_event_guard(self):
        # A hung run must terminate with a classification, not spin: the
        # guard is injected for fault cells unless the caller overrides it.
        assert FAULT_MAX_AWAKE_EVENTS > 0
        record = execute_job(
            JobSpec.create(
                "randomized",
                "ring",
                8,
                0,
                options={"faults": "drop:0.9", "max_awake_events": 2000},
            )
        )
        assert record["outcome"] in ("detected_wrong", "hung")
