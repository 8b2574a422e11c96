"""End-to-end CLI coverage for ``batch``, ``--resume``, and ``--json``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.orchestrator import RunStore


def _batch(tmp_path, *extra, store="runs.jsonl"):
    return main(
        [
            "batch",
            "--algorithms", "randomized",
            "--families", "ring", "gnp",
            "--sizes", "8", "12",
            "--seeds", "2",
            "--workers", "2",
            "--store", str(tmp_path / store),
            "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
            *extra,
        ]
    )


class TestBatchCLI:
    def test_batch_writes_store_and_exits_zero(self, tmp_path, capsys):
        assert _batch(tmp_path) == 0
        out = capsys.readouterr().out
        assert "executed  : 8" in out
        records = RunStore(tmp_path / "runs.jsonl").load()
        assert len(records) == 8
        assert all(record.status == "ok" for record in records)

    def test_second_invocation_served_from_cache(self, tmp_path, capsys):
        assert _batch(tmp_path) == 0
        capsys.readouterr()
        assert _batch(tmp_path, "--json", store="again.jsonl") == 0
        payload = json.loads(capsys.readouterr().out)
        # The acceptance bar is >= 90% cache-served; identical grids hit 100%.
        assert payload["summary"]["cached"] == payload["summary"]["total"] == 8
        assert payload["summary"]["executed"] == 0
        assert payload["summary"]["cache"]["hits"] == 8

    def test_json_records_pipe_cleanly(self, tmp_path, capsys):
        assert _batch(tmp_path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["records"]) == 8
        record = payload["records"][0]
        assert record["schema"] == 1
        assert record["metrics"]["correct"] is True
        assert record["spec"]["algorithm"] == "Randomized-MST"

    def test_crash_isolation_and_resume_via_cli(self, tmp_path, capsys):
        store = tmp_path / "mixed.jsonl"
        argv = [
            "batch",
            "--algorithms", "randomized", "crashing",
            "--families", "ring",
            "--sizes", "8",
            "--seeds", "2",
            "--store", str(store),
            "--no-cache",
            "--quiet",
            "--json",
        ]
        assert main(argv) == 1  # failures surface in the exit code
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["failed"] == 2
        assert payload["summary"]["ok"] == 2

        resumed = main(argv + ["--resume", str(store)])
        payload = json.loads(capsys.readouterr().out)
        assert resumed == 1
        # Only the failed cells re-execute; completed ones are resumed.
        assert payload["summary"]["resumed"] == 2
        assert payload["summary"]["executed"] == 2

    def test_spec_file_defines_grid(self, tmp_path, capsys):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps(
                {
                    "algorithms": ["randomized"],
                    "families": ["ring"],
                    "sizes": [8],
                    "seeds": [0, 5],
                }
            )
        )
        code = main(
            [
                "batch",
                "--spec", str(spec_file),
                "--store", str(tmp_path / "spec.jsonl"),
                "--no-cache",
                "--quiet",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        seeds = {record["spec"]["seed"] for record in payload["records"]}
        assert seeds == {0, 5}

    def test_unknown_algorithm_is_a_usage_error(self, tmp_path, capsys):
        code = main(
            ["batch", "--algorithms", "quantum", "--quiet",
             "--store", str(tmp_path / "x.jsonl"), "--no-cache"]
        )
        assert code == 2
        assert "unknown algorithm" in capsys.readouterr().err

    def test_unknown_option_is_a_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(
            json.dumps(
                {"algorithms": ["randomized"], "families": ["ring"],
                 "sizes": [8], "options": {"coloring": "log-star"}}
            )
        )
        code = main(
            ["batch", "--spec", str(spec_file), "--quiet",
             "--store", str(tmp_path / "x.jsonl"), "--no-cache"]
        )
        assert code == 2
        assert "unknown option 'coloring' for Randomized-MST" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "x.jsonl").exists()

    @pytest.mark.parametrize("command", ["batch", "submit"])
    def test_missing_spec_file_is_a_usage_error(
        self, command, tmp_path, capsys
    ):
        missing = tmp_path / "missing.json"
        code = main([command, "--spec", str(missing), "--quiet"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err


class TestRunJSON:
    def test_run_json_payload(self, capsys):
        code = main(
            ["run", "--graph", "ring", "--n", "8", "--seed", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "Randomized-MST"
        assert payload["correct"] is True
        assert payload["graph"] == {
            "family": "ring", "n": 8, "m": 8,
            "max_id": payload["graph"]["max_id"], "seed": 1,
        }
        assert payload["metrics"]["rounds"] > 0

    def test_run_text_output_unchanged(self, capsys):
        assert main(["run", "--graph", "ring", "--n", "8"]) == 0
        assert "correct MST      : True" in capsys.readouterr().out


class TestSummaryDedupeCounts:
    def test_json_summary_reports_cache_hit_rate(self, tmp_path, capsys):
        assert _batch(tmp_path, "--json") == 0
        first = json.loads(capsys.readouterr().out)["summary"]
        assert first["cached"] == 0 and first["resumed"] == 0
        assert first["cache_hit_rate"] == 0.0
        assert first["cache"]["hit_rate"] == 0.0

        assert _batch(tmp_path, "--json", store="again.jsonl") == 0
        second = json.loads(capsys.readouterr().out)["summary"]
        assert second["cached"] == second["total"] == 8
        assert second["resumed"] == 0
        assert second["cache_hit_rate"] == 1.0
        assert second["cache"]["hit_rate"] == 1.0

    def test_resumed_counts_in_json_summary(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        assert _batch(tmp_path, "--no-cache") == 0
        capsys.readouterr()
        assert (
            _batch(tmp_path, "--no-cache", "--json", "--resume", str(store))
            == 0
        )
        payload = json.loads(capsys.readouterr().out)["summary"]
        assert payload["resumed"] == 8
        assert payload["executed"] == 0


class TestSmokeGrid:
    """Two ``python -m repro.cli batch --workers 2`` processes on one cache.

    The first executes the grid on a pool and fails nothing; the second
    is served entirely from the cache.  Each exits 0 within a bound and
    leaves no worker process behind.
    """

    GRID = [
        "--algorithms", "randomized", "traditional", "--families", "ring", "gnp",
        "--sizes", "8", "16", "--seeds", "2", "--workers", "2",
    ]

    def _batch(self, tmp_path, store):
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "batch", *self.GRID,
             "--store", str(tmp_path / store),
             "--cache-dir", str(tmp_path / "cache"), "--json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        return json.loads(completed.stdout)

    def test_second_run_is_fully_cached_and_no_worker_outlives_a_run(
        self, tmp_path, survivors
    ):
        first = self._batch(tmp_path, "first.jsonl")
        assert first["summary"]["failed"] == 0
        assert first["summary"]["executed"] == first["summary"]["total"] == 16
        workers = {record["telemetry"]["pid"] for record in first["records"]}
        assert workers and not survivors(workers)

        second = self._batch(tmp_path, "second.jsonl")
        summary = second["summary"]
        assert summary["failed"] == 0
        assert summary["cached"] == summary["total"] == 16
