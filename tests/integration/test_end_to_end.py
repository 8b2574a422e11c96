"""Cross-module integration: both algorithms, baselines, and experiments
working together on the same instances."""

from __future__ import annotations

import pytest

from repro.analysis import EnergyModel
from repro.analysis.experiments import (
    experiment_ablation_coin,
    experiment_fig2_5,
)
from repro.baselines import run_traditional_ghs
from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import (
    mst_weight_set,
    random_connected_graph,
    random_geometric_graph,
    ring_graph,
)
from repro.lower_bounds import theorem3_ring


class TestAlgorithmsAgree:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_randomized_and_deterministic_same_mst(self, seed):
        graph = random_connected_graph(14, 0.25, seed=seed)
        randomized = run_randomized_mst(graph, seed=seed)
        deterministic = run_deterministic_mst(graph)
        reference = mst_weight_set(graph)
        assert randomized.mst_weights == deterministic.mst_weights == reference

    def test_all_three_on_theorem3_ring(self):
        instance = theorem3_ring(4, seed=2)
        reference = mst_weight_set(instance.graph)
        for runner in (run_randomized_mst, run_deterministic_mst):
            assert runner(instance.graph).mst_weights == reference
        assert run_traditional_ghs(instance.graph).mst_weights == reference


class TestPaperHeadlines:
    """The three quantitative claims a reader takes away from the paper."""

    def test_awake_far_below_rounds(self):
        graph = ring_graph(128, seed=1)
        result = run_randomized_mst(graph, seed=0)
        assert result.metrics.max_awake < 300
        assert result.metrics.rounds > 10_000

    def test_sleeping_beats_traditional_by_orders_of_magnitude(self):
        graph = random_geometric_graph(64, 0.3, seed=2)
        sleeping = run_randomized_mst(graph, seed=0)
        traditional = run_traditional_ghs(graph, seed=0)
        assert traditional.metrics.max_awake > 20 * sleeping.metrics.max_awake

    def test_product_lower_bound_respected(self):
        """awake x rounds >= n for every run (Theorem 4, up to polylog)."""
        for n in (32, 64):
            graph = random_connected_graph(n, 0.1, seed=n)
            for runner in (run_randomized_mst, run_deterministic_mst):
                result = runner(graph)
                assert result.metrics.awake_round_product >= n

    def test_deterministic_pays_rounds_for_determinism(self):
        """Theorem 2 vs Theorem 1: same awake order, far more rounds."""
        graph = random_connected_graph(32, 0.15, seed=3)
        randomized = run_randomized_mst(graph, seed=0)
        deterministic = run_deterministic_mst(graph)
        assert deterministic.metrics.rounds > 3 * randomized.metrics.rounds
        assert deterministic.metrics.max_awake < 6 * randomized.metrics.max_awake


class TestEnergyStory:
    def test_sleeping_extends_battery_life(self):
        graph = random_connected_graph(32, 0.1, seed=4)
        model = EnergyModel()
        sleeping = run_randomized_mst(graph, seed=0)
        traditional = run_traditional_ghs(graph, seed=0)
        assert model.executions_per_battery(
            sleeping.metrics
        ) > 10 * model.executions_per_battery(traditional.metrics)


class TestExperimentDrivers:
    def test_fig2_5_driver(self):
        outcome = experiment_fig2_5()
        assert len({node["after"]["fragment"] for node in outcome["nodes"]}) == 1

    def test_ablation_driver_quick(self):
        outcome = experiment_ablation_coin()
        chain = outcome["moe_chain"]
        assert chain["restricted_worst_diameter"] <= 2
        assert chain["unrestricted_worst_diameter"] > 10
