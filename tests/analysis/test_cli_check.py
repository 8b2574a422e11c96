"""CLI ``check`` subcommand and ``run --monitors`` plumbing."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_check_defaults(self):
        args = build_parser().parse_args(["check"])
        assert args.algorithm == "randomized"
        assert args.monitors == "all"
        assert args.faults is None

    def test_check_sweep_flags(self, capsys):
        # check runs one cell; monitored grids are campaign grids.
        for flag in (["--sweep"], ["--sizes", "8"], ["--seed-range", "2"],
                     ["--algorithms", "deterministic"], ["--families", "gnp"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["check", *flag])
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_run_accepts_monitors(self):
        args = build_parser().parse_args(
            ["run", "--monitors", "star-merge"]
        )
        assert args.monitors == "star-merge"


class TestCheckSingle:
    def test_perfect_channel_cell_passes(self, capsys):
        rc = main(["check", "--algorithm", "randomized", "--graph", "gnp",
                   "--n", "12", "--seed", "1", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "correct"
        assert payload["violations"] == 0
        assert payload["first_invariant"] is None
        assert payload["checks_run"] > 0
        assert payload["faults"] is None
        assert payload["monitors"]
        assert payload["report"]["violations"] == []

    def test_fault_cell_names_first_invariant(self, capsys):
        rc = main(["check", "--algorithm", "randomized", "--graph", "gnp",
                   "--n", "24", "--seed", "3", "--faults", "drop:0.02",
                   "--json"])
        # Faulted cells report; they do not fail the command.
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == "detected_wrong"
        assert payload["first_invariant"] == "star-merge"
        assert payload["violations"] >= 1
        assert payload["crashed_nodes"] == [4]

    def test_monitors_off_is_an_error(self, capsys):
        rc = main(["check", "--monitors", "off"])
        assert rc == 2
        assert "at least one monitor" in capsys.readouterr().err

    def test_unknown_monitor_is_an_error(self, capsys):
        rc = main(["check", "--monitors", "warp-core"])
        assert rc == 2
        assert "unknown monitor" in capsys.readouterr().err

    def test_output_file_written(self, tmp_path, capsys):
        target = tmp_path / "cell.json"
        rc = main(["check", "--graph", "path", "--n", "8", "--output",
                   str(target)])
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload["outcome"] == "correct"
        capsys.readouterr()


class TestCheckSweep:
    def test_small_sweep_is_clean(self, tmp_path, capsys):
        # A monitored perfect-channel grid runs as a campaign grid.
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({
            "campaign": {"name": "sweep"},
            "grids": [{
                "name": "invariants",
                "algorithms": ["randomized", "deterministic"],
                "families": ["gnp"], "sizes": [8], "seeds": 1,
                "monitors": "all",
            }],
        }))
        rc = main(["campaign", "run", str(spec), "--root", str(tmp_path),
                   "--no-cache", "--quiet", "--json"])
        assert rc == 0
        grid = json.loads(capsys.readouterr().out)["grids"]["invariants"]
        assert grid["failed"] == 0
        assert grid["violations"] == 0
        # gnp x one size x one seed x both algorithms.
        assert len(grid["records"]) == 2
        for record in grid["records"]:
            assert record["metrics"]["correct"]
            assert record["metrics"]["monitor_checks"] > 0


class TestRunWithMonitors:
    def test_run_json_carries_monitor_report(self, capsys):
        rc = main(["run", "--algorithm", "randomized", "--graph", "path",
                   "--n", "8", "--monitors", "all", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["monitors"]["violations"] == []
        assert payload["monitors"]["checks_run"] > 0
        assert payload["monitors"]["first_invariant"] is None

    def test_run_bad_monitor_spec_rejected(self, capsys):
        rc = main(["run", "--monitors", "bogus"])
        assert rc == 2
        assert "unknown monitor" in capsys.readouterr().err
