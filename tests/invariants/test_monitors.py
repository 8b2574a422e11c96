"""MonitorSet mechanics: spec resolution, buffering, modes, finalize."""

from __future__ import annotations

import pytest

from repro.graphs import mst_weight_set, path_graph
from repro.invariants import (
    DEFAULT_BLOCK_AWAKE_BUDGET,
    MONITOR_NAMES,
    MONITOR_REGISTRY,
    AwakeBudgetMonitor,
    FragmentCountMonitor,
    InvariantViolation,
    MonitorSet,
    MonitorView,
    MSTSubforestMonitor,
    build_monitor_set,
    resolve_monitor_spec,
)
from repro.obs import SpanRecord


class TestSpecResolution:
    @pytest.mark.parametrize("spec", [None, "", "off", "none", "null", "OFF"])
    def test_off_specs_resolve_to_none(self, spec):
        assert resolve_monitor_spec(spec) is None

    def test_all_is_all(self):
        assert resolve_monitor_spec("all") == "all"
        assert resolve_monitor_spec(" ALL ") == "all"

    def test_subset_canonicalized_to_registry_order(self):
        assert (
            resolve_monitor_spec("star-merge, fldt-wellformed")
            == "fldt-wellformed,star-merge"
        )

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown monitor"):
            resolve_monitor_spec("star-merge,warp-core")

    def test_build_all_has_every_monitor(self):
        monitors = build_monitor_set("all")
        assert monitors.names == MONITOR_NAMES

    def test_build_off_returns_none(self):
        assert build_monitor_set("off") is None
        assert build_monitor_set(None) is None

    def test_build_subset(self):
        monitors = build_monitor_set("star-merge")
        assert monitors.names == ("star-merge",)

    def test_registry_names_match_classes(self):
        for name, cls in MONITOR_REGISTRY.items():
            assert cls.name == name


class TestGroupBuffering:
    def make(self):
        monitors = MonitorSet([MSTSubforestMonitor()])
        graph = path_graph(3, seed=1)
        monitors.attach(graph, sorted(graph.node_ids), seed=0)
        return monitors, graph

    def snapshot(self, weight):
        return {"phase": 1, "tree_weights": (weight,), "fragment": 1,
                "level": 0, "parent_port": None, "children_ports": ()}

    def test_checker_fires_only_when_all_nodes_reported(self):
        monitors, graph = self.make()
        good = sorted(mst_weight_set(graph))[0]
        monitors.on_probe(1, 10, "phase_end", self.snapshot(good))
        monitors.on_probe(2, 10, "phase_end", self.snapshot(good))
        assert monitors.report.checks_run == 0
        monitors.on_probe(3, 10, "phase_end", self.snapshot(good))
        assert monitors.report.checks_run == 1
        assert monitors.report.ok()

    def test_unsubscribed_points_ignored(self):
        monitors, _ = self.make()
        for node in (1, 2, 3):
            monitors.on_probe(node, 5, "merge_decision", {"phase": 1})
        assert monitors.report.checks_run == 0

    def test_incomplete_group_filed_at_finalize(self):
        monitors, _ = self.make()
        monitors.on_probe(1, 10, "phase_end", self.snapshot(999))
        report = monitors.finalize()
        assert report.incomplete_groups == [("phase_end", 1, 1, 3)]
        # The group never completed, so the checker never ran on it.
        assert report.ok()

    def test_finalize_is_idempotent(self):
        monitors, _ = self.make()
        first = monitors.finalize()
        checks = first.checks_run
        second = monitors.finalize()
        assert second is first
        assert second.checks_run == checks

    def test_attach_resets_for_a_fresh_run(self):
        monitors, graph = self.make()
        monitors.on_probe(1, 10, "phase_end", self.snapshot(999))
        monitors.finalize()
        monitors.attach(graph, sorted(graph.node_ids), seed=1)
        assert monitors.report.checks_run == 0
        assert monitors.report.incomplete_groups == []
        report = monitors.finalize()
        assert report.incomplete_groups == []


class TestStrictMode:
    def test_strict_raises_on_first_violation(self):
        monitors = MonitorSet([MSTSubforestMonitor()], mode="strict")
        graph = path_graph(2, seed=1)
        monitors.attach(graph, sorted(graph.node_ids), seed=0)
        snapshot = {"phase": 1, "tree_weights": (10**9,)}
        monitors.on_probe(1, 3, "phase_end", dict(snapshot))
        with pytest.raises(InvariantViolation) as excinfo:
            monitors.on_probe(2, 3, "phase_end", dict(snapshot))
        assert excinfo.value.violation.invariant == "mst-subforest"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            MonitorSet(mode="panic")


class TestMonitorView:
    def test_reference_mst_of_weighted_graph(self):
        graph = path_graph(4, seed=2)
        view = MonitorView(graph, sorted(graph.node_ids))
        assert view.reference_mst == frozenset(mst_weight_set(graph))

    def test_reference_mst_of_duck_graph_is_none(self):
        view = MonitorView(object(), (1, 2))
        assert view.reference_mst is None
        assert view.reference_mst is None  # cached, still None


class TestFragmentCountMonitor:
    def phase_end(self, fragments, phase):
        return {
            node: {"phase": phase, "fragment": fragment}
            for node, fragment in enumerate(fragments, start=1)
        }

    def make(self, n):
        monitor = FragmentCountMonitor()
        monitor.reset(MonitorView(object(), tuple(range(1, n + 1))))
        return monitor

    def test_contraction_is_silent(self):
        monitor = self.make(4)
        assert list(monitor.check_group(
            "phase_end", 1, self.phase_end([1, 1, 3, 3], 1))) == []
        assert list(monitor.check_group(
            "phase_end", 2, self.phase_end([1, 1, 1, 1], 2))) == []

    def test_increase_detected(self):
        monitor = self.make(3)
        monitor.check_group("phase_end", 1, self.phase_end([1, 1, 1], 1))
        violations = list(
            monitor.check_group("phase_end", 2, self.phase_end([1, 2, 3], 2))
        )
        assert violations and "increased" in violations[0].message

    def test_randomized_bookkeeping_mismatch_detected(self):
        monitor = self.make(4)
        # Two fragments claim to merge, yet the count only drops by one.
        monitor.check_group(
            "merge_decision", 1,
            {1: {"phase": 1, "fragment": 1, "merging": 1},
             2: {"phase": 1, "fragment": 2, "merging": 1},
             3: {"phase": 1, "fragment": 3, "merging": 0},
             4: {"phase": 1, "fragment": 4, "merging": 0}},
        )
        violations = list(
            monitor.check_group("phase_end", 1, self.phase_end([1, 3, 3, 4], 1))
        )
        assert violations and "merged but the count went" in violations[0].message

    def test_deterministic_phase_must_contract(self):
        monitor = self.make(3)
        monitor.check_group("coloring", 1, self.phase_end([1, 2, 3], 1))
        violations = list(
            monitor.check_group("phase_end", 1, self.phase_end([1, 2, 3], 1))
        )
        assert violations and "Blue" in violations[0].message


def block_record(name, awake):
    return SpanRecord(
        node=5, path=("phase:3", name), awake=awake, messages=0, bits=0,
        first_round=1, last_round=awake, extent_first=1, extent_last=awake,
        index=0,
    )


class TestAwakeBudgetMonitor:
    def attached(self, monitor):
        monitors = MonitorSet([monitor])
        graph = path_graph(2, seed=1)
        monitors.attach(graph, sorted(graph.node_ids), seed=0)
        return monitors

    def test_custom_budget_below_every_default_flags(self):
        monitor = AwakeBudgetMonitor(budgets={"block:x": 0})
        violations = list(monitor.on_span_close(block_record("block:x", 1)))
        assert [v.block for v in violations] == ["block:x"]
        assert violations[0].phase == 3 and violations[0].node == 5
        monitors = self.attached(AwakeBudgetMonitor(budgets={"block:x": 0}))
        monitors.on_span_close(block_record("block:x", 1))
        assert len(monitors.report) == 1

    def test_default_budget_applies_to_unlisted_blocks(self):
        assert DEFAULT_BLOCK_AWAKE_BUDGET == 4
        monitors = self.attached(AwakeBudgetMonitor())
        monitors.on_span_close(block_record("block:other", 4))
        assert len(monitors.report) == 0
        monitors.on_span_close(block_record("block:other", 5))
        assert [v.block for v in monitors.violations] == ["block:other"]
        assert "5 awake rounds" in monitors.violations[0].message

    def test_strict_mode_raises_on_an_over_budget_block(self):
        monitors = MonitorSet([AwakeBudgetMonitor()], mode="strict")
        monitors.on_span_close(block_record("block:upcast_moe", 2))
        with pytest.raises(InvariantViolation):
            monitors.on_span_close(block_record("block:upcast_moe", 3))
