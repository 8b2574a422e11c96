"""The committed ``EXPERIMENTS.json``: one driver per non-grid section.

``python -m repro.cli experiments`` prints the document; CI rebuilds it
byte for byte.  Here the cheap drivers are rebuilt and compared with their
committed sections, and every section carries the shape assertions of the
paper claim it reproduces (the bounds the retired ``benchmarks/bench_*.py``
files asserted).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    experiment_ablation_coin,
    experiment_ablation_coloring,
    experiment_corollary1,
    experiment_energy,
    experiment_fig2_5,
    experiment_theorem2,
    experiment_toolbox,
)
from repro.lower_bounds import RING_GROWTH_FACTOR

ARTIFACT = Path(__file__).resolve().parents[2] / "EXPERIMENTS.json"


@pytest.fixture(scope="module")
def committed():
    assert ARTIFACT.exists(), "EXPERIMENTS.json must be committed"
    return json.loads(ARTIFACT.read_text())


class TestRegistry:
    def test_all_paper_artifacts_have_drivers(self, committed):
        assert set(ALL_EXPERIMENTS) == {
            "ablation_coin",
            "ablation_coloring",
            "baseline_gap",
            "corollary1",
            "energy",
            "fig1",
            "fig2_5",
            "lemma1",
            "messages",
            "node_averaged",
            "observation1",
            "theorem2",
            "theorem3",
            "toolbox",
        }
        assert set(committed) == set(ALL_EXPERIMENTS)


class TestQuickDrivers:
    """Drivers cheap enough to rebuild here (under a second together).

    Each must reproduce its committed section exactly.  Lemma 1's driver
    takes about as long as all of them, so its test reads the committed
    section only.
    """

    def test_fig2_5(self, committed):
        outcome = experiment_fig2_5()
        assert outcome == committed["fig2_5"]
        assert outcome["u_tails"] == 5 and outcome["u_heads"] == 11
        assert all(node["after"]["fragment"] == 10 for node in outcome["nodes"])

    def test_ablation_coin(self, committed):
        outcome = experiment_ablation_coin()
        assert outcome == committed["ablation_coin"]
        n = outcome["n"]
        # Unrestricted merging on the chain builds one Θ(n)-diameter
        # component; coin flips cap every component at a star.
        assert outcome["moe_chain"]["unrestricted_worst_diameter"] >= n - 2
        assert outcome["moe_chain"]["restricted_worst_diameter"] <= 2
        assert outcome["random"]["restricted_worst_diameter"] <= 2

    def test_ablation_coloring(self, committed):
        outcome = experiment_ablation_coloring()
        assert outcome == committed["ablation_coloring"]
        rows = outcome["rows"]
        awakes = [row["max_awake"] for row in rows]
        # Awake flat across a 64x range of N; rounds grow with N, inside
        # the 5N(2n+2) budget.
        assert max(awakes) <= 2 * min(awakes)
        assert rows[-1]["rounds"] > 20 * rows[0]["rounds"]
        for row in rows:
            assert row["proper"]
            assert row["rounds"] <= row["budget"]

    def test_toolbox(self, committed):
        outcome = experiment_toolbox()
        assert outcome == committed["toolbox"]
        assert len(outcome["rows"]) == 12
        for row in outcome["rows"]:
            # Observations 2-4: O(1) awake, inside one 2n+2 block.
            assert row["max_awake"] <= 2, row
            assert row["rounds"] <= row["block_span"], row

    def test_theorem2(self, committed):
        outcome = experiment_theorem2()
        assert outcome == committed["theorem2"]
        rows = outcome["rows"]
        awakes = [row["max_awake"] for row in rows]
        per_n = [row["rounds_per_N"] for row in rows]
        # Awake flat within 2x; RT/N flat within 3x across a 16x range of N.
        assert max(awakes) <= 2 * min(awakes)
        assert max(per_n) <= 3 * min(per_n)

    def test_corollary1(self, committed):
        outcome = experiment_corollary1()
        assert outcome == committed["corollary1"]
        rows = outcome["rows"]
        star_rounds = [row["logstar_rounds"] for row in rows]
        # log* RT flat across a 64x range of N; fast-awake RT scales with N.
        assert max(star_rounds) < 2 * min(star_rounds)
        assert rows[-1]["fast_rounds"] > 20 * rows[0]["fast_rounds"]
        for row in rows:
            assert row["logstar_awake"] <= 5 * row["fast_awake"]

    def test_energy(self, committed):
        outcome = experiment_energy()
        assert outcome == committed["energy"]
        assert (
            outcome["traditional_worst_energy_mj"]
            > 10 * outcome["sleeping_worst_energy_mj"]
        )

    def test_lemma1(self, committed):
        outcome = committed["lemma1"]
        n, budget = outcome["n"], outcome["phase_budget"]
        assert outcome["seeds"] == 20 and set(outcome["contraction"]) == {
            "random",
            "ring",
            "moe_chain",
        }
        for family in outcome["contraction"].values():
            assert family["mean_ratio"] >= 4 / 3 - 0.05, family
            assert family["worst_phase_count"] <= budget
            # Realised phase counts track log_{geo}(n).
            assert family["worst_phase_count"] <= 3 * math.log(n) / math.log(
                max(1.25, family["geometric_mean_ratio"])
            )
        # Lemma 2: fixed-budget Monte Carlo runs are always exact here.
        fixed = outcome["fixed_mode"]
        assert fixed["runs"] == 5 and fixed["exact"] == fixed["runs"]


class TestHeavyDrivers:
    """Drivers too slow to rebuild here: their committed sections carry the
    assertions, and CI rebuilds the whole file byte for byte."""

    def test_theorem3(self, committed):
        outcome = committed["theorem3"]
        assert len(outcome["rows"]) == 5
        for row in outcome["rows"]:
            assert row["holds"], row
            assert row["growth_factor"] <= RING_GROWTH_FACTOR + 1e-9
        assert outcome["awake_fit"]["ratio_spread"] <= 4.0

    def test_fig1(self, committed):
        outcome = committed["fig1"]
        structure = outcome["structure"]
        assert structure["diameter"] <= structure["diameter_bound"]
        assert structure["diameter"] < structure["c"]  # X shortcuts the rows
        assert outcome["oracle_correct"] == outcome["oracle_instances"] == 8
        assert outcome["css_matches_sd"]
        # Intersecting instance: the MST needs a heavy edge.
        assert outcome["heavy_edge_in_mst"]

    def test_lemma8(self, committed):
        outcome = committed["fig1"]
        lemma8 = outcome["lemma8"]
        assert len(lemma8["cut_bits"]) == 4
        assert all(cut["bits"] > 0 for cut in lemma8["cut_bits"])
        assert lemma8["implied_awake"] > 0
        assert outcome["distributed_awake"] >= lemma8["implied_awake"]

    def test_observation1(self, committed):
        rows = committed["observation1"]["rows"]
        for row in rows:
            assert row["correct"], row
            # Completion = Θ(D + k): inside a small envelope of the diameter.
            assert row["completion_rounds"] <= 2 * row["diameter"] + 10, row
        completions = [row["completion_rounds"] for row in rows]
        # Completion grows with c, but far slower than c itself.
        assert completions[-1] > completions[0]
        assert completions[-1] < rows[-1]["c"]

    def test_baseline_gap(self, committed):
        rows = committed["baseline_gap"]["rows"]
        gaps = [row["gap"] for row in rows]
        # Traditional awake is Θ̃(n), sleeping O(log n): the gap widens.
        assert gaps[-1] > gaps[0]
        assert gaps[-1] > 50
        for row in rows:
            assert row["gap"] > 10
            # The independent classical GHS agrees on the MST and also
            # pays Θ̃(n) awake.
            assert row["pipelined_mst_matches"], row
            assert row["pipelined_awake"] > 2 * row["sleeping_awake"], row
        # Flooding's awake complexity is Θ(D) = Θ(n) on a ring.
        assert rows[-1]["flooding_awake"] >= 4 * rows[0]["flooding_awake"]

    def test_messages(self, committed):
        for row in committed["messages"]["rows"]:
            # O(m) messages per phase, and the schedule never loses one.
            assert row["messages_per_edge_phase"] < 12, row
            assert row["lost"] == 0, row

    def test_node_averaged(self, committed):
        outcome = committed["node_averaged"]
        for row in outcome["rows"]:
            assert row["randomized_mean"] <= row["randomized_max"], row
            assert row["deterministic_mean"] <= row["deterministic_max"], row
            # No free riders: the average stays near the worst case.
            assert row["randomized_mean"] >= row["randomized_max"] / 4, row
        assert outcome["randomized_mean_fit"]["ratio_spread"] <= 3.0
