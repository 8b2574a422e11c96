"""Pure checker units: every monitor's checker fires on corrupted state.

Each test class takes one paper invariant, builds a healthy probe group
(the checker stays silent), then corrupts it the way a faulted run would
and asserts the checker names the defect.
"""

from __future__ import annotations

from types import SimpleNamespace

from repro.core.coloring import BLUE, GREEN, RED
from repro.core.moe import DIR_IN, DIR_OUT
from repro.core.mst_randomized import HEADS, TAILS
from repro.graphs import path_graph
from repro.invariants import (
    BLOCK_AWAKE_BUDGETS,
    check_block_awake,
    check_coloring_legal,
    check_congest_budget,
    check_fldt_wellformed,
    check_mis_independence,
    check_moe_sparsification,
    check_mst_subforest,
    check_star_merge,
)
from repro.obs.spans import SpanRecord


def singleton_phase_end(graph, phase=1):
    """Healthy phase_end group: every node is its own root fragment."""
    return {
        node: {
            "phase": phase,
            "fragment": node,
            "level": 0,
            "parent_port": None,
            "children_ports": (),
            "tree_weights": (),
        }
        for node in graph.node_ids
    }


class TestFLDTWellformed:
    def test_singletons_are_wellformed(self):
        graph = path_graph(4, seed=1)
        assert check_fldt_wellformed(graph, 1, singleton_phase_end(graph)) == []

    def test_corrupted_level_detected(self):
        graph = path_graph(4, seed=1)
        snapshots = singleton_phase_end(graph)
        snapshots[2]["level"] = 3
        violations = check_fldt_wellformed(graph, 1, snapshots)
        assert len(violations) == 1
        assert violations[0].invariant == "fldt-wellformed"
        assert violations[0].phase == 1

    def test_forged_fragment_membership_detected(self):
        graph = path_graph(4, seed=1)
        snapshots = singleton_phase_end(graph)
        # Node 4 claims node 1's fragment without any tree path to it.
        snapshots[4]["fragment"] = 1
        assert check_fldt_wellformed(graph, 1, snapshots)


class TestMSTSubforest:
    def test_subset_is_silent(self):
        snapshots = {1: {"tree_weights": (5, 7)}, 2: {"tree_weights": (5,)}}
        assert check_mst_subforest({5, 7, 9}, 2, snapshots) == []

    def test_foreign_edge_detected(self):
        snapshots = {1: {"tree_weights": (5, 99)}}
        violations = check_mst_subforest({5, 7}, 2, snapshots)
        assert len(violations) == 1
        assert violations[0].invariant == "mst-subforest"
        assert violations[0].node == 1
        assert "99" in violations[0].message


def star_merge_group():
    """Fragment 10 (tails, merging) absorbs into fragment 20 (heads)."""
    return {
        1: {"phase": 1, "fragment": 10, "coin": TAILS, "moe": 5,
            "merging": 1, "owner": 1, "valid": 1, "target": 20},
        2: {"phase": 1, "fragment": 10, "coin": TAILS, "moe": 5,
            "merging": 1, "owner": 0, "valid": None, "target": None},
        3: {"phase": 1, "fragment": 20, "coin": HEADS, "moe": 7,
            "merging": 0, "owner": 1, "valid": 0, "target": 10},
    }


class TestStarMerge:
    def test_legal_star_is_silent(self):
        assert check_star_merge(1, star_merge_group()) == []

    def test_coin_disagreement_detected(self):
        group = star_merge_group()
        group[2]["coin"] = HEADS
        assert any(
            "disagree" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_two_owners_detected(self):
        group = star_merge_group()
        group[2]["owner"] = 1
        assert any(
            "owners" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_unowned_moe_detected(self):
        group = star_merge_group()
        group[1]["owner"] = 0
        assert any(
            "no member owns" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_heads_fragment_merging_detected(self):
        group = star_merge_group()
        for node in (1, 2):
            group[node]["coin"] = HEADS
        group[3]["coin"] = TAILS  # avoid an unrelated target-coin finding
        assert any(
            "only tails fragments merge" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_invalid_moe_merge_detected(self):
        group = star_merge_group()
        group[1]["valid"] = 0
        assert any(
            "valid=" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_tails_target_detected(self):
        group = star_merge_group()
        group[3]["coin"] = TAILS
        assert any(
            "must be heads" in violation.message
            for violation in check_star_merge(1, group)
        )

    def test_merging_target_breaks_star(self):
        group = star_merge_group()
        group[3]["merging"] = 1
        assert any(
            "not a star" in violation.message
            for violation in check_star_merge(1, group)
        )


def sparsify_group():
    """Fragment 1's outgoing MOE (weight 5) was selected by fragment 2."""
    return {
        1: {"phase": 2, "fragment": 1,
            "nbr_info": ((2, 5, DIR_OUT),), "selected": ()},
        2: {"phase": 2, "fragment": 2,
            "nbr_info": ((1, 5, DIR_IN),), "selected": ((1, 5),)},
    }


class TestMOESparsification:
    def test_symmetric_selection_is_silent(self):
        assert check_moe_sparsification(2, sparsify_group()) == []

    def test_more_than_three_incoming_detected(self):
        group = sparsify_group()
        group[2]["nbr_info"] = tuple(
            (frag, weight, DIR_IN) for frag, weight in
            ((1, 5), (3, 6), (4, 7), (5, 8))
        )
        group[2]["selected"] = tuple(
            (frag, weight) for frag, weight, _ in group[2]["nbr_info"]
        )
        assert any(
            "incoming" in violation.message and "limit 3" in violation.message
            for violation in check_moe_sparsification(2, group)
        )

    def test_selection_nbr_info_mismatch_detected(self):
        group = sparsify_group()
        group[2]["selected"] = ()
        assert any(
            "do not match NBR-INFO" in violation.message
            for violation in check_moe_sparsification(2, group)
        )

    def test_unselected_outgoing_moe_detected(self):
        group = sparsify_group()
        group[2]["nbr_info"] = ()
        group[2]["selected"] = ()
        assert any(
            "did not select" in violation.message
            for violation in check_moe_sparsification(2, group)
        )

    def test_nbr_info_disagreement_detected(self):
        group = sparsify_group()
        group[1] = dict(group[1])
        group[3] = {"phase": 2, "fragment": 1, "nbr_info": (), "selected": ()}
        assert any(
            "disagree" in violation.message
            for violation in check_moe_sparsification(2, group)
        )


def coloring_group():
    return {
        1: {"phase": 3, "fragment": 1, "color": BLUE,
            "nbr_colors": ((2, RED),), "nbr_fragments": (2,)},
        2: {"phase": 3, "fragment": 2, "color": RED,
            "nbr_colors": ((1, BLUE),), "nbr_fragments": (1,)},
    }


class TestColoringLegal:
    def test_proper_coloring_is_silent(self):
        assert check_coloring_legal(3, coloring_group()) == []

    def test_monochromatic_edge_detected(self):
        group = coloring_group()
        group[2]["color"] = BLUE
        group[1]["nbr_colors"] = ((2, BLUE),)
        assert any(
            "monochromatic" in violation.message
            for violation in check_coloring_legal(3, group)
        )

    def test_off_palette_color_detected(self):
        group = coloring_group()
        group[1]["color"] = 42
        assert any(
            "outside" in violation.message
            for violation in check_coloring_legal(3, group)
        )

    def test_stale_neighbour_view_detected(self):
        group = coloring_group()
        group[1]["nbr_colors"] = ((2, GREEN),)
        assert any(
            "believes neighbour" in violation.message
            for violation in check_coloring_legal(3, group)
        )

    def test_member_color_disagreement_detected(self):
        group = coloring_group()
        group[3] = dict(group[1], color=GREEN)
        assert any(
            "disagree" in violation.message
            for violation in check_coloring_legal(3, group)
        )


def block_span(name, awake, phase=2, node=7):
    path = (f"phase:{phase}", name)
    return SpanRecord(
        node=node, path=path, awake=awake, messages=0, bits=0,
        first_round=1, last_round=9, extent_first=1, extent_last=9, index=0,
    )


class TestBlockAwakeBudget:
    def test_within_budget_is_silent(self):
        budget = BLOCK_AWAKE_BUDGETS["block:upcast_moe"]
        assert check_block_awake(block_span("block:upcast_moe", budget)) == []

    def test_over_budget_detected_with_phase(self):
        record = block_span("block:upcast_moe", 50, phase=4)
        violations = check_block_awake(record)
        assert len(violations) == 1
        assert violations[0].invariant == "block-awake-budget"
        assert violations[0].phase == 4
        assert violations[0].block == "block:upcast_moe"
        assert violations[0].node == 7

    def test_non_block_spans_ignored(self):
        assert check_block_awake(block_span("merge:1", 10**6)) == []
        assert check_block_awake(block_span("phase:9", 10**6)) == []

    def test_unknown_block_uses_default_budget(self):
        assert check_block_awake(block_span("block:mystery", 4)) == []
        assert check_block_awake(block_span("block:mystery", 5))


class TestCongestBudget:
    def test_within_budget_is_silent(self):
        metrics = SimpleNamespace(congest_violations=0, max_message_bits=40)
        assert check_congest_budget(metrics, 64) == []

    def test_strict_violations_reported(self):
        metrics = SimpleNamespace(congest_violations=3, max_message_bits=90)
        violations = check_congest_budget(metrics, 64)
        assert len(violations) == 1
        assert "3 message(s)" in violations[0].message

    def test_oversize_message_reported_without_strict_count(self):
        metrics = SimpleNamespace(congest_violations=0, max_message_bits=90)
        violations = check_congest_budget(metrics, 64)
        assert len(violations) == 1
        assert "90 bits" in violations[0].message


class TestMISIndependence:
    def test_adjacent_in_nodes_reported(self):
        graph = path_graph(4, seed=1)
        snapshots = {node: {"in_mis": False} for node in graph.node_ids}
        edge = graph.edges()[1]
        snapshots[edge.u]["in_mis"] = snapshots[edge.v]["in_mis"] = True
        (violation,) = check_mis_independence(graph, 2, snapshots)
        assert violation.invariant == "mis-independence"
        assert violation.phase == 2
        assert violation.message == (
            f"adjacent nodes {edge.u} and {edge.v} both decided to join the MIS"
        )
        assert set(violation.snapshot) == {edge.u, edge.v}

    def test_no_graph_is_silent(self):
        assert check_mis_independence(None, 1, {1: {"in_mis": True}}) == []
