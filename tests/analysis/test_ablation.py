"""Coin-flip ablation: merge-component diameters with vs without pruning."""

from __future__ import annotations

import pytest

from repro.analysis import boruvka_merge_structure, worst_merge_diameter
from repro.graphs import (
    adversarial_moe_chain,
    mst_weight_set,
    random_connected_graph,
)


class TestMergeStructure:
    def test_unrestricted_chain_has_linear_diameter(self):
        """On the adversarial chain every MOE points right: the first
        unrestricted phase merges one component of diameter Θ(n)."""
        graph = adversarial_moe_chain(32, seed=1)
        stats = boruvka_merge_structure(graph, restricted=False, seed=0)
        assert stats[0].max_component_diameter >= graph.n - 2

    def test_restricted_components_are_stars(self):
        """Coin pruning caps merge components at diameter 2 — always."""
        for seed in range(5):
            graph = adversarial_moe_chain(32, seed=seed)
            stats = boruvka_merge_structure(graph, restricted=True, seed=seed)
            assert worst_merge_diameter(stats) <= 2

    def test_restricted_stars_on_random_graphs_too(self):
        graph = random_connected_graph(48, 0.1, seed=2)
        stats = boruvka_merge_structure(graph, restricted=True, seed=3)
        assert worst_merge_diameter(stats) <= 2

    @pytest.mark.parametrize("n", [32, 64, 128, 256])
    def test_coin_flips_cap_chain_merges_at_every_size(self, n):
        """Unrestricted merging on the chain costs a Θ(n)-diameter merge;
        coin flips keep chain and random-graph merges stars."""
        chain = adversarial_moe_chain(n, seed=n)
        unrestricted = boruvka_merge_structure(chain, restricted=False, seed=1)
        restricted = boruvka_merge_structure(chain, restricted=True, seed=1)
        assert worst_merge_diameter(unrestricted) >= n - 2
        assert worst_merge_diameter(restricted) <= 2
        graph = random_connected_graph(n, 0.08, seed=n)
        stats = boruvka_merge_structure(graph, restricted=True, seed=1)
        assert worst_merge_diameter(stats) <= 2

    def test_unrestricted_boruvka_few_phases(self):
        graph = random_connected_graph(64, 0.1, seed=4)
        stats = boruvka_merge_structure(graph, restricted=False, seed=0)
        # Classical Borůvka halves fragments per phase: <= log2(n) phases.
        assert len(stats) <= 7

    def test_restricted_reduces_fragments_every_phase(self):
        graph = random_connected_graph(32, 0.1, seed=5)
        stats = boruvka_merge_structure(graph, restricted=True, seed=1)
        for entry in stats[:-1]:
            assert entry.fragments_after <= entry.fragments_before

    def test_both_policies_terminate_with_one_fragment(self):
        graph = random_connected_graph(24, 0.15, seed=6)
        for restricted in (False, True):
            stats = boruvka_merge_structure(graph, restricted=restricted, seed=2)
            assert stats[-1].fragments_after == 1

    def test_max_phases_cap(self):
        graph = random_connected_graph(24, 0.15, seed=7)
        stats = boruvka_merge_structure(
            graph, restricted=True, seed=0, max_phases=2
        )
        assert len(stats) <= 2
