"""(algorithm × family × n × seed) grids as campaigns, and their exports."""

from __future__ import annotations

import csv
import io

import pytest

from repro.campaigns import (
    CampaignSpec,
    CampaignSpecError,
    LocalGridExecutor,
    ledger_path,
    run_campaign,
)
from repro.orchestrator import GRAPH_FAMILIES, load_records

#: The flat columns of a plain MST cell's ``RunRecord.metrics``.
COLUMNS = {
    "algorithm", "family", "n", "m", "max_id", "seed", "phases",
    "max_awake", "mean_awake", "rounds", "awake_round_product",
    "messages", "bits", "correct",
}


def run_grid(root, fits=(), **grid):
    """Run one campaign grid under ``root``; returns the report."""
    spec = CampaignSpec.from_payload(
        {
            "campaign": {"name": "sweep"},
            "grids": [{"name": "g", **grid}],
            "fits": list(fits),
        }
    )
    executor = LocalGridExecutor(store=ledger_path(root, spec.name))
    return run_campaign(spec, executor)


def metrics(report):
    return [record["metrics"] for record in report["grids"]["g"]["records"]]


class TestRunSweep:
    def test_grid_shape(self, tmp_path):
        rows = metrics(
            run_grid(
                tmp_path, algorithms=["Randomized-MST"],
                families=["ring", "path"], sizes=[8, 16], seeds=[0, 1],
            )
        )
        assert len(rows) == 2 * 2 * 2
        assert {row["family"] for row in rows} == {"ring", "path"}

    def test_all_correct(self, tmp_path):
        rows = metrics(
            run_grid(
                tmp_path, algorithms=["Randomized-MST"], families=["gnp"],
                sizes=[12], seeds=[0, 1, 2],
            )
        )
        assert all(row["correct"] for row in rows)

    def test_unknown_algorithm_rejected(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="unknown algorithm"):
            run_grid(
                tmp_path, algorithms=["Quantum-MST"], families=["ring"],
                sizes=[8], seeds=[0],
            )

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(CampaignSpecError, match="unknown family"):
            run_grid(
                tmp_path, algorithms=["Randomized-MST"],
                families=["hypercube"], sizes=[8], seeds=[0],
            )

    def test_id_range_factor(self, tmp_path):
        rows = metrics(
            run_grid(
                tmp_path, algorithms=["Randomized-MST"], families=["ring"],
                sizes=[8], seeds=[0], id_range_factor=10,
            )
        )
        assert rows[0]["max_id"] == 80

    def test_family_registry_builds_valid_graphs(self):
        for name, factory in GRAPH_FAMILIES.items():
            graph = factory(12, 0, None)
            assert graph.is_connected(), name


class TestExports:
    def test_csv_shape(self, tmp_path):
        run_grid(
            tmp_path, algorithms=["Randomized-MST"], families=["ring"],
            sizes=[8], seeds=[0, 1],
        )
        # The CSV recipe of docs/api.md, over the campaign's ledger.
        rows = [
            record.metrics
            for record in load_records(ledger_path(tmp_path, "sweep"))
            if record.metrics
        ]
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        lines = out.getvalue().strip().splitlines()
        assert set(lines[0].split(",")) == COLUMNS
        assert len(lines) == len(rows) + 1 == 3
        assert all(len(line.split(",")) == len(COLUMNS) for line in lines)

    def test_fit_produces_constants(self, tmp_path):
        report = run_grid(
            tmp_path, algorithms=["Randomized-MST"], families=["ring"],
            sizes=[8, 32], seeds=[0],
            fits=[{"name": "awake", "grid": "g", "model": "log"}],
        )
        fit = report["fits"]["awake"]
        assert [point["n"] for point in fit["points"]] == [8, 32]
        assert fit["constant"] > 0
