"""Deterministic-MST: correctness, determinism, ID-range dependence."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import run_deterministic_mst
from repro.core.mst_deterministic import (
    deterministic_blocks_per_phase,
    deterministic_phase_count,
)
from repro.graphs import (
    WeightedGraph,
    complete_graph,
    grid_graph,
    mst_weight_set,
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(10, seed=1),
            lambda: ring_graph(12, seed=2),
            lambda: star_graph(9, seed=3),
            lambda: complete_graph(8, seed=4),
            lambda: grid_graph(3, 4, seed=5),
            lambda: random_connected_graph(16, 0.2, seed=6),
        ],
    )
    def test_outputs_exact_mst(self, graph_factory):
        graph = graph_factory()
        result = run_deterministic_mst(graph)
        assert result.mst_weights == mst_weight_set(graph)

    @given(
        n=st.integers(min_value=2, max_value=16),
        seed=st.integers(min_value=0, max_value=10**5),
    )
    def test_random_graphs(self, n, seed):
        graph = random_connected_graph(n, 0.3, seed=seed)
        result = run_deterministic_mst(graph)
        assert result.mst_weights == mst_weight_set(graph)

    def test_two_nodes_mutual_moe(self):
        graph = path_graph(2, seed=7)
        result = run_deterministic_mst(graph)
        assert result.mst_weights == {graph.edges()[0].weight}

    def test_single_node(self):
        graph = WeightedGraph([1], [])
        result = run_deterministic_mst(graph)
        assert result.mst_weights == set()

    def test_sparse_id_space(self):
        """IDs drawn from [1, 8n]: coloring runs 8n stages, still correct."""
        graph = ring_graph(8, seed=8, id_range=64)
        result = run_deterministic_mst(graph)
        assert result.mst_weights == mst_weight_set(graph)

    def test_fully_deterministic(self):
        """No randomness anywhere: byte-identical metrics across runs and
        across seeds."""
        graph = random_connected_graph(12, 0.25, seed=9)
        runs = [run_deterministic_mst(graph, seed=s) for s in (0, 1, 42)]
        assert len({r.metrics.rounds for r in runs}) == 1
        assert len({r.metrics.max_awake for r in runs}) == 1
        assert len({frozenset(r.mst_weights) for r in runs}) == 1


class TestComplexity:
    def test_rounds_scale_with_id_range(self):
        """Theorem 2's N-dependence: same topology, larger N, more rounds."""
        small = run_deterministic_mst(ring_graph(8, seed=10))
        large = run_deterministic_mst(ring_graph(8, seed=10, id_range=80))
        assert large.metrics.rounds > 5 * small.metrics.rounds
        # ... while awake complexity stays flat (each node participates in
        # at most 5 coloring stages regardless of N).
        assert large.metrics.max_awake <= small.metrics.max_awake * 2

    def test_rounds_within_phase_budget(self):
        from repro.core.schedule import block_span

        graph = random_connected_graph(12, 0.2, seed=11)
        result = run_deterministic_mst(graph)
        budget = (
            result.phases
            * deterministic_blocks_per_phase(graph.max_id)
            * block_span(graph.n)
        )
        assert result.metrics.rounds <= budget

    def test_awake_logarithmic_shape(self):
        awakes = {}
        for n in (8, 32):
            graph = ring_graph(n, seed=n)
            awakes[n] = run_deterministic_mst(graph).metrics.max_awake
        assert awakes[32] / awakes[8] < 3.0

    def test_phase_count_formula_documented(self):
        assert deterministic_phase_count(1) == 0
        assert deterministic_phase_count(2) > 240000  # the paper's constant

    def test_congest_discipline_holds(self):
        graph = random_connected_graph(16, 0.2, seed=12)
        result = run_deterministic_mst(graph)
        assert result.metrics.congest_violations == 0

    def test_messages_never_lost(self):
        graph = random_connected_graph(14, 0.25, seed=13)
        result = run_deterministic_mst(graph)
        assert result.metrics.messages_lost == 0


class TestOptions:
    def test_unknown_coloring_rejected(self):
        graph = path_graph(3, seed=1)
        with pytest.raises(Exception, match="coloring"):
            run_deterministic_mst(graph, coloring="rainbow")

    def test_unknown_termination_rejected(self):
        # The fixed budget is over 240,000 phases; only adaptive runs.
        graph = path_graph(3, seed=1)
        for termination in ("bogus", "fixed"):
            with pytest.raises(ValueError, match="termination='adaptive'"):
                run_deterministic_mst(graph, termination=termination)

    def test_max_phases_cap(self):
        graph = path_graph(10, seed=2)
        result = run_deterministic_mst(graph, max_phases=1)
        assert result.phases == 1
        assert result.mst_weights <= mst_weight_set(graph)

    def test_adaptive_phases_far_below_paper_budget(self):
        graph = random_connected_graph(16, 0.2, seed=14)
        result = run_deterministic_mst(graph)
        assert result.phases <= graph.n
        assert result.phases < deterministic_phase_count(graph.n)
