"""End-to-end CLI coverage for ``campaign run``/``resume``/``report``."""

from __future__ import annotations

import json

import pytest

from repro.campaigns import CAMPAIGN_SCHEMA, load_report
from repro.cli import main

SPEC_TOML = """\
[campaign]
name = "cli-test"
description = "CLI round trip"

[[grids]]
name = "g"
algorithms = ["randomized"]
families = ["ring"]
sizes = [8]
seeds = 2

[[fits]]
name = "awake"
grid = "g"
metric = "max_awake"
model = "log"
resamples = 20
"""


@pytest.fixture
def spec_path(tmp_path):
    pytest.importorskip("tomllib")
    path = tmp_path / "campaign.toml"
    path.write_text(SPEC_TOML)
    return path


def campaign(action, spec_path, tmp_path, *extra):
    return main(
        [
            "campaign", action, str(spec_path),
            "--root", str(tmp_path / "campaigns"),
            "--cache-dir", str(tmp_path / "cache"),
            "--quiet",
            *extra,
        ]
    )


class TestCampaignCLI:
    def test_run_writes_ledger_and_report(self, spec_path, tmp_path, capsys):
        assert campaign("run", spec_path, tmp_path) == 0
        out = capsys.readouterr().out
        assert "campaign 'cli-test'" in out
        root = tmp_path / "campaigns" / "cli-test"
        assert (root / "runs.jsonl").exists()
        report = load_report(root / "report.json")
        assert report["schema"] == CAMPAIGN_SCHEMA
        assert report["summary"] == {
            "cells": 2, "ok": 2, "failed": 0, "violations": 0
        }

    def test_json_output_is_the_report_payload(
        self, spec_path, tmp_path, capsys
    ):
        assert campaign("run", spec_path, tmp_path, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == CAMPAIGN_SCHEMA
        assert "awake" in payload["fits"]

    def test_report_replays_without_running(
        self, spec_path, tmp_path, capsys
    ):
        assert campaign("run", spec_path, tmp_path) == 0
        first = (
            tmp_path / "campaigns" / "cli-test" / "report.json"
        ).read_bytes()
        capsys.readouterr()
        assert campaign("report", spec_path, tmp_path) == 0
        second = (
            tmp_path / "campaigns" / "cli-test" / "report.json"
        ).read_bytes()
        assert first == second

    def test_report_before_run_suggests_resume(
        self, spec_path, tmp_path, capsys
    ):
        assert campaign("report", spec_path, tmp_path) == 1
        err = capsys.readouterr().err
        assert "campaign resume" in err

    def test_resume_is_a_run_alias(self, spec_path, tmp_path, capsys):
        assert campaign("resume", spec_path, tmp_path) == 0
        capsys.readouterr()
        assert campaign("resume", spec_path, tmp_path) == 0

    def test_bad_spec_exits_two_with_path_in_message(
        self, tmp_path, capsys
    ):
        pytest.importorskip("tomllib")
        bad = tmp_path / "bad.toml"
        bad.write_text('[campaign]\nname = "x"\n')
        assert campaign("run", bad, tmp_path) == 2
        err = capsys.readouterr().err
        assert "no [[grids]]" in err and str(bad) in err

    def test_output_flag_redirects_report(self, spec_path, tmp_path, capsys):
        target = tmp_path / "custom.json"
        assert campaign(
            "run", spec_path, tmp_path, "--output", str(target)
        ) == 0
        assert load_report(target)["campaign"] == "cli-test"
