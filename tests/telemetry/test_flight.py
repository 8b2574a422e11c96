"""Flight recorder: bounded NDJSON lifecycle log per job."""

from __future__ import annotations

import json

from repro.telemetry import (
    FLIGHT_EVENTS,
    FlightRecorder,
    flight_path_for,
    load_flight_events,
)


class TestFlightPath:
    def test_paired_with_store(self, tmp_path):
        store = tmp_path / "jobs" / "abc123.jsonl"
        assert flight_path_for(store) == tmp_path / "jobs" / "abc123.events.ndjson"

    def test_accepts_strings(self):
        assert flight_path_for("x/y.jsonl").name == "y.events.ndjson"


class TestFlightRecorder:
    def test_records_sequenced_events_with_trace(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "j.events.ndjson", trace_id="t1")
        assert recorder.record("submitted", cells=3)
        assert recorder.record("dequeued", queue_wait_s=0.01)
        events = load_flight_events(recorder.path)
        assert [event["event"] for event in events] == ["submitted", "dequeued"]
        assert [event["seq"] for event in events] == [0, 1]
        assert all(event["trace_id"] == "t1" for event in events)
        assert events[0]["cells"] == 3

    def test_offsets_are_monotonic(self, tmp_path):
        ticks = iter(range(100))
        recorder = FlightRecorder(
            tmp_path / "j.events.ndjson", clock=lambda: next(ticks) * 0.001
        )
        for name in ("submitted", "dequeued", "finalized"):
            recorder.record(name)
        offsets = [e["offset_ms"] for e in load_flight_events(recorder.path)]
        assert offsets == sorted(offsets)
        assert offsets[0] >= 0

    def test_cap_drops_non_forced_events(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "j.events.ndjson", max_events=2)
        assert recorder.record("submitted")
        assert recorder.record("dequeued")
        assert not recorder.record("cell_finished")
        assert not recorder.record("cell_finished")
        assert recorder.dropped == 2
        assert recorder.recorded == 2

    def test_force_bypasses_cap(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "j.events.ndjson", max_events=1)
        recorder.record("submitted")
        recorder.record("cell_finished")  # dropped
        assert recorder.record("finalized", force=True, dropped=recorder.dropped)
        events = load_flight_events(recorder.path)
        assert events[-1]["event"] == "finalized"
        assert events[-1]["dropped"] == 1

    def test_io_error_degrades_to_drop(self, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        recorder = FlightRecorder(target / "j.events.ndjson")
        assert not recorder.record("submitted")
        assert recorder.dropped == 1

    def test_creates_parent_directories(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "deep" / "er" / "j.events.ndjson")
        assert recorder.record("submitted")
        assert recorder.path.exists()

    def test_event_vocabulary_covers_lifecycle(self):
        assert FLIGHT_EVENTS[0] == "submitted"
        assert FLIGHT_EVENTS[-1] == "finalized"
        assert "dequeued" in FLIGHT_EVENTS
        assert "cell_finished" in FLIGHT_EVENTS


class TestLoadFlightEvents:
    def test_missing_file_is_empty(self, tmp_path):
        events = load_flight_events(tmp_path / "nope.ndjson")
        assert events == []
        assert events.skipped_lines == 0

    def test_torn_trailing_line_is_skipped(self, tmp_path):
        target = tmp_path / "j.events.ndjson"
        target.write_text(
            json.dumps({"seq": 0, "event": "submitted"})
            + "\n"
            + '{"seq": 1, "event": "dequ'  # torn write
        )
        events = load_flight_events(target)
        assert len(events) == 1
        assert events[0]["event"] == "submitted"
        assert events.skipped_lines == 1

    def test_non_object_lines_are_skipped(self, tmp_path):
        target = tmp_path / "j.events.ndjson"
        target.write_text('42\n{"seq": 0, "event": "submitted"}\n\n')
        events = load_flight_events(target)
        assert [event["event"] for event in events] == ["submitted"]
        assert events.skipped_lines == 1
