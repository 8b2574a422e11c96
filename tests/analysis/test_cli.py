"""CLI smoke tests (argument parsing and end-to-end subcommands)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.algorithm == "randomized"
        assert args.graph == "gnp"

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--algorithm", "quantum"])


class TestSubcommands:
    def test_run_randomized(self, capsys):
        assert main(["run", "--graph", "ring", "--n", "16", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "correct MST      : True" in out

    def test_run_deterministic_logstar(self, capsys):
        code = main(
            [
                "run",
                "--algorithm",
                "deterministic",
                "--coloring",
                "log-star",
                "--graph",
                "path",
                "--n",
                "10",
            ]
        )
        assert code == 0
        assert "Deterministic-MST" in capsys.readouterr().out

    def test_run_traditional(self, capsys):
        assert main(["run", "--algorithm", "traditional", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "Traditional-GHS" in out

    def test_run_spanning_tree(self, capsys):
        assert main(["run", "--algorithm", "spanning-tree", "--n", "12"]) == 0
        assert "spanning tree    : True" in capsys.readouterr().out

    def test_walkthrough(self, capsys):
        assert main(["walkthrough"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 5" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "--only", "fig2_5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["fig2_5"]
        assert payload["fig2_5"]["u_tails"] == 5

    def test_experiments_rejects_unknown_name(self, capsys):
        assert main(["experiments", "--only", "table1"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_with_save_trace(self, tmp_path, capsys):
        target = tmp_path / "run.jsonl"
        code = main(
            ["run", "--graph", "ring", "--n", "8", "--save-trace", str(target)]
        )
        assert code == 0
        assert "trace            :" in capsys.readouterr().out
        from repro.sim import load_trace

        loaded = load_trace(target)
        assert len(loaded.trace) > 0
