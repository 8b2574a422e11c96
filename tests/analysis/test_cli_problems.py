"""CLI problem axis: --problem on run/check/batch/trace and campaign grids."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main

COMPARE_SPEC = (
    Path(__file__).resolve().parents[2] / "examples" / "campaigns"
    / "compare.toml"
)


def campaign_json(capsys, tmp_path, grids, *extra):
    """``campaign run --json`` over a JSON spec; returns (rc, report)."""
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"campaign": {"name": "problems"}, "grids": grids})
    )
    rc = main(
        ["campaign", "run", str(spec), "--root", str(tmp_path),
         "--no-cache", "--quiet", "--json", *extra]
    )
    return rc, json.loads(capsys.readouterr().out)


class TestParser:
    def test_run_problem_defaults_to_mst(self):
        args = build_parser().parse_args(["run"])
        assert args.problem == "mst"

    def test_run_rejects_unknown_problem(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--problem", "coloring"])

    def test_batch_grid_gains_problem_axis(self):
        args = build_parser().parse_args(["batch", "--problem", "mis"])
        assert args.problem == "mis"

    def test_compare_defaults_to_acceptance_grid(self):
        tomllib = pytest.importorskip("tomllib")
        with open(COMPARE_SPEC, "rb") as handle:
            grids = tomllib.load(handle)["grids"]
        assert [grid.get("problem", "mst") for grid in grids] == ["mst", "mis"]
        for grid in grids:
            assert grid["sizes"] == [64, 256, 1024]
            assert grid["seeds"] == 3

    def test_bench_accepts_mis_suite(self):
        args = build_parser().parse_args(["bench", "--suite", "mis"])
        assert args.suite == "mis"


class TestRun:
    def test_run_problem_mis(self, capsys):
        code = main(
            ["run", "--problem", "mis", "--n", "16", "--monitors", "all"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Sleeping-MIS" in out
        assert "maximal independent set: True" in out
        assert "0 violation(s)" in out

    def test_algorithm_mis_implies_problem(self, capsys):
        code = main(["run", "--algorithm", "mis", "--n", "16", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["problem"] == "mis"
        assert payload["correct"] is True

    def test_mis_array_engine_fails_fast(self, capsys):
        code = main(
            ["run", "--problem", "mis", "--n", "16", "--engine", "array"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "Sleeping-MIS" in err
        assert "only Randomized-MST is vectorized" in err

    def test_mst_output_unchanged(self, capsys):
        code = main(["run", "--graph", "ring", "--n", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "correct MST      : True" in out


class TestCheck:
    def test_check_problem_mis_attaches_mis_monitors(self, capsys):
        code = main(["check", "--problem", "mis", "--n", "16", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["problem"] == "mis"
        assert "mis-independence" in payload["monitors"]
        assert payload["outcome"] == "correct"
        assert payload["violations"] == 0

    def test_check_sweep_mis(self, capsys, tmp_path):
        # A monitored MIS grid runs as a campaign grid.
        code, report = campaign_json(
            capsys, tmp_path,
            [{"name": "mis", "problem": "mis", "algorithms": ["mis"],
              "families": ["gnp"], "sizes": [8], "seeds": 2,
              "monitors": "all"}],
        )
        assert code == 0
        grid = report["grids"]["mis"]
        assert [r["spec"]["algorithm"] for r in grid["records"]] == [
            "Sleeping-MIS"
        ] * 2
        assert grid["failed"] == 0
        assert grid["violations"] == 0


class TestBatch:
    def test_batch_problem_mis(self, capsys, tmp_path):
        store = tmp_path / "mis.jsonl"
        code = main(
            [
                "batch", "--problem", "mis", "--sizes", "8", "--seeds", "2",
                "--monitors", "all", "--no-cache", "--quiet",
                "--store", str(store), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["summary"]["failed"] == 0
        records = payload["records"]
        assert len(records) == 2
        for record in records:
            assert record["spec"]["problem"] == "mis"
            assert record["spec"]["algorithm"] == "Sleeping-MIS"
            assert record["metrics"]["correct"] is True
            assert record["metrics"]["violations"] == 0


class TestTrace:
    def test_trace_problem_mis(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code = main(
            [
                "trace", "--problem", "mis", "--n", "16",
                "--output", str(out_path), "--json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["algorithm"] == "Sleeping-MIS"
        assert payload["identity_ok"] is True
        assert out_path.exists()


class TestCompare:
    def test_compare_small_grid(self, capsys, tmp_path):
        # compare.toml's two grids at tiny sizes.
        out_path = tmp_path / "compare.json"
        axes = {"algorithms": ["randomized"], "families": ["gnp"],
                "sizes": [8, 16], "seeds": 1}
        code, report = campaign_json(
            capsys, tmp_path,
            [{"name": "mst", **axes, "engine": "array"},
             {"name": "mis", **axes, "problem": "mis"}],
            "--output", str(out_path),
        )
        assert code == 0
        assert set(report["grids"]) == {"mst", "mis"}
        assert json.loads(out_path.read_text()) == report
