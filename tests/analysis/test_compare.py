"""The MST-vs-MIS comparison: the compare campaign and its committed report."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import MODELS
from repro.campaigns import (
    CampaignSpec,
    LocalGridExecutor,
    load_report,
    render_report,
    run_campaign,
    write_report,
)
from repro.problems import problem_bundle, problem_names

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = REPO_ROOT / "PROBLEMS_compare.json"

#: Mean max awake rounds per size (n = 64, 256, 1024) in the committed
#: report.
MEAN_MAX_AWAKE = {
    "mst": (171.667, 209.0, 301.333),
    "mis": (10.667, 11.333, 17.667),
}


def mean_curve(records):
    by_size = {}
    for record in records:
        metrics = record["metrics"]
        by_size.setdefault(metrics["n"], []).append(metrics["max_awake"])
    return {
        n: round(sum(values) / len(values), 3)
        for n, values in sorted(by_size.items())
    }


@pytest.fixture(scope="module")
def artifact():
    assert ARTIFACT.exists(), "PROBLEMS_compare.json must be committed"
    return load_report(ARTIFACT)


class TestGenerate:
    @pytest.fixture(scope="class")
    def monitored(self, tmp_path_factory):
        """Both problems on a tiny shared grid, each cell monitored."""
        axes = {
            "algorithms": ["randomized"],
            "families": ["gnp"],
            "sizes": [8, 16],
            "seeds": [0],
            "monitors": "all",
        }
        spec = CampaignSpec.from_payload(
            {
                "campaign": {"name": "compare-small"},
                "grids": [
                    {"name": "mst", **axes},
                    {"name": "mis", **axes, "problem": "mis"},
                ],
            }
        )
        store = tmp_path_factory.mktemp("compare") / "runs.jsonl"
        return run_campaign(spec, LocalGridExecutor(store=store))

    def test_covers_every_registered_problem(self, artifact):
        problems = {
            record["spec"].get("problem", "mst")
            for grid in artifact["grids"].values()
            for record in grid["records"]
        }
        assert problems == set(problem_names())

    def test_curves_carry_normalized_ratios(self, artifact):
        # Each curve is fitted against its own problem's bound.
        for name, fit in artifact["fits"].items():
            spec = artifact["grids"][fit["grid"]]["records"][0]["spec"]
            bundle = problem_bundle(spec.get("problem", "mst"))
            for point in fit["points"]:
                assert MODELS[fit["model"]](point["n"]) == pytest.approx(
                    bundle.awake_normalizer(point["n"])
                ), name

    def test_monitored_cells_record_zero_violations(self, monitored):
        for grid in monitored["grids"].values():
            assert grid["violations"] == 0
            assert grid["ok"] == grid["cells"] == 2
            for record in grid["records"]:
                assert record["metrics"]["correct"] is True
                assert record["metrics"]["monitor_checks"] > 0

    def test_render_names_both_bounds(self, artifact):
        text = render_report(artifact)
        assert "x log(n)" in text
        assert "x loglog(n)" in text

    def test_roundtrip_and_schema_gate(self, artifact, tmp_path):
        # The committed bytes are exactly what write_report produces.
        path = write_report(artifact, tmp_path / "compare.json")
        assert path.read_bytes() == ARTIFACT.read_bytes()
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-problems-compare/1"}')
        with pytest.raises(ValueError, match="unexpected campaign report"):
            load_report(bad)


class TestCommittedArtifact:
    """The acceptance criteria, asserted against the committed report."""

    def test_acceptance_grid(self, artifact):
        for name in ("mst", "mis"):
            grid = artifact["grids"][name]
            cells = [
                (record["spec"]["n"], record["spec"]["seed"])
                for record in grid["records"]
            ]
            assert cells == [
                (n, seed) for n in (64, 256, 1024) for seed in (0, 1, 2)
            ]
            assert mean_curve(grid["records"]) == dict(
                zip((64, 256, 1024), MEAN_MAX_AWAKE[name])
            )

    def test_mis_grows_strictly_slower(self, artifact):
        mst, mis = (
            list(mean_curve(artifact["grids"][name]["records"]).values())
            for name in ("mst", "mis")
        )
        # Growth over n=64..1024: MIS x1.656 vs MST x1.755.
        assert round(mis[-1] / mis[0], 3) == 1.656
        assert round(mst[-1] / mst[0], 3) == 1.755
        # And in absolute terms: by n=1024 the curves are separated by
        # an order of magnitude.
        assert 10 * mis[-1] < mst[-1]

    def test_every_cell_correct(self, artifact):
        assert artifact["summary"] == {
            "cells": 18, "ok": 18, "failed": 0, "violations": 0
        }
        for grid in artifact["grids"].values():
            assert all(
                record["metrics"]["correct"] for record in grid["records"]
            )
