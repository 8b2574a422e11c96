"""Table 1 from its committed campaign report, and the sensor-energy model."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import EnergyModel, mean
from repro.baselines import run_traditional_ghs
from repro.campaigns import load_report
from repro.core import run_randomized_mst
from repro.graphs import random_geometric_graph, ring_graph
from repro.orchestrator import expand_grid
from repro.sim import Metrics

ARTIFACT = Path(__file__).resolve().parents[2] / "CAMPAIGN_table1.json"

RANDOMIZED_SIZES = (16, 32, 64, 128, 256)
DETERMINISTIC_SIZES = (8, 16, 32, 64, 96)

#: EXPERIMENTS.md's Table 1 rows: n -> (AT, RT), as printed there.
TABLE1_ROWS = {
    "Randomized-MST": {
        16: (75.7, 2116),
        32: (100.3, 5289),
        64: (171.7, 17434),
        128: (210.7, 41560),
        256: (209.0, 81237),
    },
    "Deterministic-MST": {
        8: (59.0, 2728),
        16: (129.3, 14218),
        32: (144.7, 54348),
        64: (159.3, 218676),
        96: (185.0, 513600),
    },
    # Always awake: AT = RT (the comparator sentence under row 1).
    "Traditional-GHS": {
        16: (2116.0, 2116),
        32: (5288.7, 5289),
        64: (17434.0, 17434),
        128: (41560.3, 41560),
        256: (81237.0, 81237),
    },
}

#: EXPERIMENTS.md's Theorem 4 table: mean AT x RT per (algorithm, n).
PRODUCTS = {
    "Randomized-MST": (160791, 549094, 3025086, 8759019, 16997046),
    "Traditional-GHS": (4498265, 28987985, 307898181, 1728466214, 6604211878),
    "Deterministic-MST": (168368, 1874442, 7977260, 34842322, 95817854),
}

#: The quoted fits: name -> (constant, ratio_spread), as printed there.
FITS = {
    "randomized-awake-vs-logn": (26.2, 1.59),
    "randomized-rounds-vs-nlogn": (40.8, 1.40),
    "deterministic-awake-vs-logn": (27.8, 1.64),
    "deterministic-rounds-vs-n2logn": (8.5, 1.68),
}


@pytest.fixture(scope="module")
def report():
    assert ARTIFACT.exists(), "CAMPAIGN_table1.json must be committed"
    return load_report(ARTIFACT)


@pytest.fixture(scope="module")
def rows(report):
    """Table 1's rows: ``rows[algorithm][n]`` holds the seed means."""
    cells = {}
    for grid in report["grids"].values():
        for record in grid["records"]:
            metrics = record["metrics"]
            by_n = cells.setdefault(metrics["algorithm"], {})
            by_n.setdefault(metrics["n"], []).append(metrics)
    return {
        algorithm: {
            n: {
                "max_awake": mean([run["max_awake"] for run in runs]),
                "rounds": mean([run["rounds"] for run in runs]),
                "product": mean([run["awake_round_product"] for run in runs]),
                "correct_runs": sum(1 for run in runs if run["correct"]),
                "total_runs": len(runs),
            }
            for n, runs in sorted(by_n.items())
        }
        for algorithm, by_n in cells.items()
    }


class TestTable1:
    def test_rows_cover_sizes(self, rows):
        for algorithm, expected in TABLE1_ROWS.items():
            assert list(rows[algorithm]) == list(expected)

    def test_all_runs_correct(self, rows):
        every = [row for by_n in rows.values() for row in by_n.values()]
        assert len(every) == 15
        assert all(row["correct_runs"] == row["total_runs"] == 3 for row in every)

    def test_traditional_comparator_runs(self, rows):
        traditional = rows["Traditional-GHS"]
        assert len(traditional) == 5
        for row in traditional.values():
            assert row["max_awake"] == row["rounds"]  # always-awake accounting

    def test_rows_match_experiments_md(self, rows):
        for algorithm, expected in TABLE1_ROWS.items():
            measured = {
                n: (round(row["max_awake"], 1), round(row["rounds"]))
                for n, row in rows[algorithm].items()
            }
            assert measured == expected, algorithm

    def test_products_match_experiments_md(self, rows):
        for algorithm, expected in PRODUCTS.items():
            products = tuple(
                round(row["product"]) for row in rows[algorithm].values()
            )
            assert products == expected, algorithm

    def test_products_respect_theorem4(self, rows):
        # The Ω̃(n) bound: no algorithm's AT x RT comes near n.
        assert all(
            row["product"] >= n
            for by_n in rows.values()
            for n, row in by_n.items()
        )
        # Randomized-MST tracks n polylog(n): its product per n grows
        # less than 12x while n grows 16x.
        randomized = rows["Randomized-MST"]
        first, last = min(randomized), max(randomized)
        growth = (randomized[last]["product"] / last) / (
            randomized[first]["product"] / first
        )
        assert growth < 12

    def test_fits_match_experiments_md(self, report):
        fits = report["fits"]
        assert set(fits) == set(FITS) | {"traditional-awake-vs-nlogn"}
        for name, (constant, spread) in FITS.items():
            assert round(fits[name]["constant"], 1) == constant, name
            assert round(fits[name]["ratio_spread"], 2) == spread, name

    def test_fit_shapes_hold(self, report):
        # A spread of k: the normalized constant wanders by at most k
        # across the grid (linear growth would show ~16/log-ratio).
        fits = report["fits"]
        assert fits["randomized-awake-vs-logn"]["ratio_spread"] <= 3.0
        assert fits["randomized-rounds-vs-nlogn"]["ratio_spread"] <= 3.0
        assert fits["deterministic-awake-vs-logn"]["ratio_spread"] <= 3.5
        assert fits["deterministic-rounds-vs-n2logn"]["ratio_spread"] <= 3.5

    def test_covers_the_table1_grid(self, report):
        """The 45 cells: both gnp grids, three seeds each."""
        expected = expand_grid(
            ["Randomized-MST", "Traditional-GHS"], ["gnp"], RANDOMIZED_SIZES, range(3)
        ) + expand_grid(["Deterministic-MST"], ["gnp"], DETERMINISTIC_SIZES, range(3))
        keys = {
            record["key"]
            for grid in report["grids"].values()
            for record in grid["records"]
        }
        assert keys == {spec.key for spec in expected}
        assert report["summary"]["cells"] == 45


class TestEnergyModel:
    def test_sleeping_is_cheap(self):
        model = EnergyModel()
        active = model.node_energy(awake_rounds=100, messages_sent=0, total_rounds=100)
        dozing = model.node_energy(awake_rounds=1, messages_sent=0, total_rounds=100)
        assert active > 50 * dozing

    def test_transmissions_priced(self):
        model = EnergyModel()
        silent = model.node_energy(10, 0, 10)
        chatty = model.node_energy(10, 5, 10)
        assert chatty == silent + 5 * model.tx_mj

    def test_run_energy_per_node(self):
        metrics = Metrics()
        metrics.rounds = 100
        metrics.node(1).awake_rounds = 10
        metrics.node(2).awake_rounds = 1
        energies = EnergyModel().run_energy(metrics)
        assert energies[1] > energies[2]

    def test_executions_per_battery_positive(self):
        graph = ring_graph(16, seed=1)
        result = run_randomized_mst(graph, seed=0)
        runs = EnergyModel().executions_per_battery(result.metrics)
        assert runs > 0

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_sleeping_saves_energy_on_geometric_graphs(self, n):
        model = EnergyModel()
        graph = random_geometric_graph(n, 0.35, seed=n)
        sleeping = run_randomized_mst(graph, seed=0, verify=True)
        traditional = run_traditional_ghs(graph, seed=0)
        assert model.max_node_energy(traditional.metrics) > 10 * (
            model.max_node_energy(sleeping.metrics)
        )

    def test_empty_metrics_edge_cases(self):
        model = EnergyModel()
        assert model.max_node_energy(Metrics()) == 0.0
        assert model.executions_per_battery(Metrics()) == float("inf")
