"""Append-only JSONL run store: atomic appends, load, torn-line tolerance."""

from __future__ import annotations

import json

from repro.orchestrator import (
    SCHEMA_VERSION,
    JobSpec,
    RunRecord,
    RunStore,
    load_records,
)


def _ok(seed: int) -> RunRecord:
    spec = JobSpec.create("randomized", "ring", 8, seed)
    return RunRecord.ok(spec, {"seed": seed}, telemetry={"elapsed_s": 0.1})


def _failed(seed: int) -> RunRecord:
    spec = JobSpec.create("randomized", "ring", 8, seed)
    return RunRecord.failed(spec, "RuntimeError: boom")


class TestRunStore:
    def test_append_load_round_trip(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.extend([_ok(0), _failed(1)])
        loaded = store.load()
        assert [record.status for record in loaded] == ["ok", "failed"]
        assert loaded[0].metrics == {"seed": 0}
        assert loaded[1].error == "RuntimeError: boom"

    def test_records_are_schema_versioned(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(_ok(0))
        (line,) = (tmp_path / "runs.jsonl").read_text().strip().splitlines()
        assert json.loads(line)["schema"] == SCHEMA_VERSION
        assert store.load()[0].schema == SCHEMA_VERSION

    def test_missing_file_loads_empty(self, tmp_path):
        assert RunStore(tmp_path / "absent.jsonl").load() == []

    def test_torn_trailing_line_tolerated(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.extend([_ok(0), _ok(1)])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "spe')  # torn write
        loaded = store.load()
        assert len(loaded) == 2
        assert store.skipped_lines == 1

    def test_load_records_helper(self, tmp_path):
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(_ok(3))
        assert load_records(tmp_path / "runs.jsonl")[0].key == _ok(3).key

    def test_fingerprint_excludes_telemetry(self):
        spec = JobSpec.create("randomized", "ring", 8, 0)
        first = RunRecord.ok(spec, {"seed": 0}, telemetry={"elapsed_s": 0.5})
        second = RunRecord.ok(spec, {"seed": 0}, telemetry={"elapsed_s": 9.9})
        assert first.fingerprint() == second.fingerprint()

    def test_torn_trailing_line_logs_warning(self, tmp_path, caplog):
        """A daemon that died mid-append must resume with a warning, not
        a crash — the skipped line is named in the log."""
        import logging

        path = tmp_path / "runs.jsonl"
        store = RunStore(path)
        store.append(_ok(0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "spe')  # no newline
        with caplog.at_level(logging.WARNING, "repro.orchestrator.store"):
            loaded = store.load()
        assert len(loaded) == 1
        assert store.skipped_lines == 1
        assert any(
            "line 2" in message and "torn write" in message
            for message in caplog.messages
        )

    def test_clean_load_logs_nothing(self, tmp_path, caplog):
        import logging

        store = RunStore(tmp_path / "runs.jsonl")
        store.extend([_ok(0), _ok(1)])
        with caplog.at_level(logging.WARNING, "repro.orchestrator.store"):
            store.load()
        assert not caplog.messages
