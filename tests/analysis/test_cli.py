"""CLI smoke tests (argument parsing and end-to-end subcommands)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.orchestrator import execute_job, expand_grid


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
        code = main(["run", "--algorithm", "logstar", "--graph", "path", "--n", "10"])
        assert code == 0
        assert "Deterministic-MST" in capsys.readouterr().out

    def test_run_traditional(self, capsys):
        assert main(["run", "--algorithm", "traditional", "--n", "12"]) == 0
        out = capsys.readouterr().out
        assert "Traditional-GHS" in out

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


class TestCellDoor:
    """``run``, ``check`` and ``trace`` render one orchestrator cell."""

    def test_one_algorithm_menu(self):
        parser = build_parser()
        for command in ("run", "check", "trace"):
            for name in ("logstar", "pipelined", "traditional", "mis"):
                args = parser.parse_args([command, "--algorithm", name])
                assert args.algorithm == name

    @pytest.mark.parametrize(
        "argv",
        [
            ["walkthrough"],
            ["run", "--coloring", "log-star"],
            ["run", "--algorithm", "spanning-tree"],
            ["trace", "--algorithm", "spanning-tree"],
        ],
    )
    def test_removed_surface_is_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_check_names_the_canonical_algorithm(self, capsys):
        assert main(["check", "--n", "12", "--seed", "1", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "Randomized-MST"

    def test_failed_run_names_the_canonical_algorithm(self, capsys):
        code = main(
            ["run", "--problem", "mis", "--faults", "crash:2@10", "--n", "16",
             "--seed", "1", "--json"]
        )
        assert code == 1
        assert json.loads(capsys.readouterr().out)["algorithm"] == "Sleeping-MIS"

    @pytest.mark.parametrize("command", ["run", "trace"])
    def test_algorithm_mis_under_faults_is_diagnosed(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            [command, "--algorithm", "mis", "--faults", "crash:2@10", "--n",
             "16", "--seed", "1", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["outcome"] == "detected_wrong"
        assert "[4, 15]" in payload["error"]

    def test_termination_reaches_traditional(self, capsys):
        phases = {}
        for termination in ("adaptive", "fixed"):
            code = main(
                ["run", "--algorithm", "traditional", "--termination",
                 termination, "--n", "12", "--seed", "1", "--json"]
            )
            assert code == 0
            phases[termination] = json.loads(capsys.readouterr().out)["phases"]
        assert phases["fixed"] > phases["adaptive"]

    def test_faulted_run_matches_its_grid_cell(self, capsys):
        # The seed reaches Deterministic-MST's channel, as in a grid cell.
        code = main(
            ["run", "--algorithm", "deterministic", "--faults", "drop:0.01",
             "--graph", "gnp", "--n", "10", "--seed", "3", "--json"]
        )
        payload = json.loads(capsys.readouterr().out)
        (spec,) = expand_grid(
            ["deterministic"], ["gnp"], [10], [3], faults=["drop:0.01"]
        )
        record = execute_job(spec)
        assert code == (0 if record["correct"] else 1)
        assert (payload["outcome"], payload["error"]) == (
            record["outcome"], record["error"]
        )

    @pytest.mark.parametrize(
        "command, algorithm",
        [("run", "deterministic"), ("check", "deterministic"),
         ("run", "pipelined")],
    )
    def test_fixed_termination_without_a_budget_exits_2(
        self, command, algorithm, capsys
    ):
        code = main(
            [command, "--algorithm", algorithm, "--termination", "fixed",
             "--n", "8"]
        )
        assert code == 2
        assert "only with termination='adaptive'" in capsys.readouterr().err
