"""Randomized-MST: correctness, complexity bounds, model conformance."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import fit_scaling
from repro.core import (
    randomized_phase_count,
    run_randomized_mst,
)
from repro.graphs import (
    WeightedGraph,
    adversarial_moe_chain,
    complete_graph,
    grid_graph,
    mst_weight_set,
    path_graph,
    random_connected_graph,
    random_geometric_graph,
    ring_graph,
    star_graph,
)


class TestCorrectness:
    @pytest.mark.parametrize(
        "graph_factory",
        [
            lambda: path_graph(13, seed=1),
            lambda: ring_graph(16, seed=2),
            lambda: star_graph(11, seed=3),
            lambda: complete_graph(9, seed=4),
            lambda: grid_graph(4, 5, seed=5),
            lambda: random_connected_graph(20, 0.2, seed=6),
            lambda: random_geometric_graph(15, 0.4, seed=7),
            lambda: adversarial_moe_chain(14, seed=8),
        ],
    )
    def test_outputs_exact_mst(self, graph_factory):
        graph = graph_factory()
        result = run_randomized_mst(graph, seed=0)
        assert result.mst_weights == mst_weight_set(graph)

    @given(
        n=st.integers(min_value=2, max_value=24),
        seed=st.integers(min_value=0, max_value=10**5),
    )
    def test_random_graphs_random_seeds(self, n, seed):
        graph = random_connected_graph(n, 0.25, seed=seed)
        result = run_randomized_mst(graph, seed=seed)
        assert result.mst_weights == mst_weight_set(graph)

    def test_two_nodes(self):
        graph = path_graph(2, seed=1)
        result = run_randomized_mst(graph, seed=0)
        assert result.mst_weights == {graph.edges()[0].weight}

    def test_single_node(self):
        graph = WeightedGraph([1], [])
        result = run_randomized_mst(graph, seed=0)
        assert result.mst_weights == set()
        assert result.metrics.rounds == 0

    def test_every_node_knows_its_incident_mst_edges(self):
        """The paper's output convention, checked per node."""
        graph = random_connected_graph(14, 0.3, seed=9)
        result = run_randomized_mst(graph, seed=1)
        mst = mst_weight_set(graph)
        for node, output in result.node_outputs.items():
            incident_mst = {
                weight
                for (_, _, weight) in graph.ports_of(node).values()
                if weight in mst
            }
            assert output.mst_weights == incident_mst

    def test_final_fragment_is_global(self):
        graph = ring_graph(10, seed=10)
        result = run_randomized_mst(graph, seed=2)
        fragments = {out.fragment_id for out in result.node_outputs.values()}
        assert len(fragments) == 1

    def test_seed_reproducibility(self):
        graph = random_connected_graph(16, 0.2, seed=11)
        first = run_randomized_mst(graph, seed=5)
        second = run_randomized_mst(graph, seed=5)
        assert first.metrics.rounds == second.metrics.rounds
        assert first.metrics.max_awake == second.metrics.max_awake
        assert first.mst_weights == second.mst_weights


class TestTermination:
    def test_fixed_mode_runs_paper_budget(self):
        graph = path_graph(6, seed=1)
        result = run_randomized_mst(graph, seed=0, termination="fixed")
        assert result.phases == randomized_phase_count(6)
        assert result.mst_weights == mst_weight_set(graph)

    def test_adaptive_stops_early(self):
        graph = path_graph(6, seed=1)
        adaptive = run_randomized_mst(graph, seed=0, termination="adaptive")
        assert adaptive.phases < randomized_phase_count(6)

    def test_phase_budget_formula(self):
        assert randomized_phase_count(2) == 4 * math.ceil(
            math.log(2) / math.log(4 / 3)
        ) + 1
        assert randomized_phase_count(1) == 0

    def test_unknown_termination_rejected(self):
        graph = path_graph(3, seed=1)
        with pytest.raises(Exception, match="termination"):
            run_randomized_mst(graph, termination="bogus")

    def test_max_phases_override_may_leave_forest(self):
        graph = path_graph(12, seed=2)
        result = run_randomized_mst(graph, seed=0, max_phases=1)
        assert result.phases == 1
        # One phase cannot always finish; output is a sub-forest of the MST.
        assert result.mst_weights <= mst_weight_set(graph)


class TestComplexity:
    def test_awake_complexity_logarithmic_shape(self):
        """Doubling n adds O(1) phases: awake grows additively, not
        multiplicatively.  Averaged over seeds (the phase count is a random
        variable under adaptive termination)."""

        def mean_awake(n):
            runs = [
                run_randomized_mst(ring_graph(n, seed=n), seed=s).metrics.max_awake
                for s in range(3)
            ]
            return sum(runs) / len(runs)

        small, medium, large = mean_awake(16), mean_awake(64), mean_awake(256)
        # Θ(n)-awake behaviour would quadruple between points (16x overall);
        # O(log n) keeps the overall factor near 2.
        assert large / small < 6.0
        assert medium / small < 3.0
        # ...and awake / log2 n wanders by less than 3x across the sizes.
        fit = fit_scaling([16, 64, 256], [small, medium, large], "log")
        assert fit.ratio_spread <= 3.0, fit

    def test_rounds_within_phase_budget(self):
        """Round complexity is exactly bounded by blocks/phase x span."""
        from repro.core.mst_randomized import PHASE_BLOCKS
        from repro.core.schedule import block_span

        graph = random_connected_graph(24, 0.2, seed=3)
        result = run_randomized_mst(graph, seed=0)
        assert result.metrics.rounds <= (
            result.phases * PHASE_BLOCKS * block_span(graph.n)
        )

    def test_awake_within_constant_per_phase(self):
        graph = random_connected_graph(24, 0.2, seed=4)
        result = run_randomized_mst(graph, seed=0)
        # Each phase costs every node at most ~20 awake rounds (9 blocks,
        # <=2 wakes each, plus merging).
        assert result.metrics.max_awake <= 20 * result.phases

    def test_phases_near_log_n(self):
        graph = random_connected_graph(64, 0.1, seed=5)
        result = run_randomized_mst(graph, seed=0)
        assert result.phases <= randomized_phase_count(64)

    def test_congest_discipline_holds(self):
        """Strict CONGEST checking is on by default and never trips."""
        graph = random_connected_graph(32, 0.15, seed=6)
        result = run_randomized_mst(graph, seed=0)
        assert result.metrics.congest_violations == 0


class TestSleepingBehaviour:
    def test_nodes_sleep_most_of_the_time(self):
        graph = ring_graph(64, seed=7)
        result = run_randomized_mst(graph, seed=0)
        assert result.metrics.max_awake < result.metrics.rounds / 20

    def test_messages_never_lost(self):
        """The schedule guarantees every send has an awake receiver."""
        graph = random_connected_graph(20, 0.2, seed=8)
        result = run_randomized_mst(graph, seed=0)
        assert result.metrics.messages_lost == 0
