"""The ``trace`` CLI subcommand: files on disk, validation, JSON mode."""

from __future__ import annotations

import json

from repro.cli import main
from repro.obs import validate_chrome_trace


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    output = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--algorithm", "randomized",
            "--graph", "ring",
            "--n", "16",
            "--seed", "1",
            "--output", str(output),
        ]
    )
    assert code == 0
    payload = json.loads(output.read_text())
    assert validate_chrome_trace(payload) > 0
    text = capsys.readouterr().out
    assert "awake identity   : ok" in text
    assert "block:upcast_moe" in text


def test_trace_json_mode_with_ndjson(tmp_path, capsys):
    output = tmp_path / "trace.json"
    ndjson = tmp_path / "spans.ndjson"
    code = main(
        [
            "trace",
            "--algorithm", "deterministic",
            "--graph", "path",
            "--n", "8",
            "--seed", "0",
            "--output", str(output),
            "--ndjson", str(ndjson),
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["identity_ok"] is True
    assert payload["events"] > 0
    assert payload["spans"] > 0
    assert payload["ndjson"]["lines"] == len(ndjson.read_text().splitlines())
    validate_chrome_trace(json.loads(output.read_text()))


def test_trace_uninstrumented_baseline_still_validates(tmp_path):
    """Baselines without spans attribute everything to the root span."""
    output = tmp_path / "trace.json"
    code = main(
        [
            "trace",
            "--algorithm", "pipelined",
            "--graph", "ring",
            "--n", "8",
            "--output", str(output),
        ]
    )
    assert code == 0
    validate_chrome_trace(json.loads(output.read_text()))


def test_trace_traditional_identity_holds(tmp_path, capsys):
    """Traditional-GHS re-accounts ``result.metrics`` as always awake; the
    identity compares the spans with the engine's own accounting."""
    code = main(
        [
            "trace",
            "--algorithm", "traditional",
            "--graph", "ring",
            "--n", "8",
            "--seed", "1",
            "--output", str(tmp_path / "trace.json"),
            "--json",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["identity_ok"] is True
    assert payload["algorithm"] == "Traditional-GHS"
    assert payload["metrics"]["max_awake"] == payload["metrics"]["rounds"]
