"""Service telemetry end-to-end: access logs, /metrics, flight events,
trace correlation, byte-identity, and client retry behaviour."""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.orchestrator import (
    ResultCache,
    RunRecord,
    grid_from_payload,
    grid_key,
    run_jobs,
)
from repro.service import JobQueue, ServiceClient, ServiceError, build_server
from repro.service.server import normalize_endpoint
from repro.telemetry import FlightRecorder, parse_prometheus, validate_promtext

RING_GRID = {
    "algorithms": ["randomized"],
    "families": ["ring"],
    "sizes": [8],
    "seeds": 2,
}


@pytest.fixture
def service(tmp_path):
    """A live server on an ephemeral port backed by a started queue."""
    queue = JobQueue(
        tmp_path / "service", cache=ResultCache(tmp_path / "cache")
    ).start()
    server = build_server(queue, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        queue.shutdown()
        thread.join(timeout=5)


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as client:
        yield client


def access_records(caplog):
    return [
        record
        for record in caplog.records
        if record.name == "repro.service.access"
        and hasattr(record, "status")
    ]


class TestAccessLog:
    def test_404_produces_exactly_one_access_record(self, client, caplog):
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            with pytest.raises(ServiceError) as excinfo:
                client.poll("nosuchjob")
        assert excinfo.value.status == 404
        records = [r for r in access_records(caplog) if r.status == 404]
        assert len(records) == 1
        record = records[0]
        assert record.method == "GET"
        assert record.duration_ms >= 0
        assert record.trace_id

    def test_202_submission_produces_exactly_one_access_record(
        self, client, caplog
    ):
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            submission = client.submit(RING_GRID)
        assert submission["coalesced"] is False
        records = [r for r in access_records(caplog) if r.status == 202]
        assert len(records) == 1
        record = records[0]
        assert record.method == "POST"
        assert record.duration_ms >= 0
        # The access line and the created job share one trace ID.
        assert record.trace_id == submission["trace_id"]

    def test_client_trace_header_is_honoured_and_echoed(self, service, caplog):
        with ServiceClient(service.url, trace_id="cafecafecafecafe") as client:
            with caplog.at_level(logging.INFO, logger="repro.service.access"):
                submission = client.submit(RING_GRID)
        assert submission["trace_id"] == "cafecafecafecafe"
        request = urllib.request.Request(
            f"{service.url}/healthz",
            headers={"X-Trace-Id": "beefbeefbeefbeef"},
        )
        with urllib.request.urlopen(request) as response:
            assert response.headers["X-Trace-Id"] == "beefbeefbeefbeef"


class TestNormalizeEndpoint:
    def test_job_hashes_collapse(self):
        assert normalize_endpoint("/jobs/abc123") == "/jobs/{id}"
        assert normalize_endpoint("/jobs/abc123/result") == "/jobs/{id}/result"
        assert normalize_endpoint("/jobs/abc123/events") == "/jobs/{id}/events"

    def test_known_endpoints_pass_through(self):
        for path in ("/healthz", "/stats", "/metrics", "/jobs"):
            assert normalize_endpoint(path) == path

    def test_unknown_paths_collapse_to_other(self):
        assert normalize_endpoint("/admin/secret") == "other"
        assert normalize_endpoint("/jobs/a/b/c") == "other"


class TestMetricsEndpoint:
    def test_metrics_page_parses_and_validates(self, client):
        client.submit(RING_GRID)
        client.wait(grid_key(grid_from_payload(RING_GRID)), timeout_s=120)
        client.submit(RING_GRID)  # coalesced onto the finished job
        text = client.metrics_text()
        assert validate_promtext(text) > 0
        samples = parse_prometheus(text)
        assert (
            samples.get('service_submissions_total{kind="coalesced"}', 0) >= 1
        )
        assert any(
            key.startswith("service_http_requests_total{") and value > 0
            for key, value in samples.items()
        )
        assert any(
            key.startswith("service_http_request_seconds_bucket{")
            for key in samples
        )
        assert any(
            key.startswith("service_queue_wait_seconds_bucket{")
            or key.startswith('service_queue_wait_seconds_bucket')
            for key in samples
        )
        assert any("service_worker_heartbeat" in key for key in samples)

    def test_metrics_content_type(self, service):
        with urllib.request.urlopen(f"{service.url}/metrics") as response:
            assert "version=0.0.4" in response.headers["Content-Type"]


class TestFlightRecorder:
    def test_events_chain_shares_one_trace_with_access_log(
        self, client, caplog
    ):
        with caplog.at_level(logging.INFO, logger="repro.service.access"):
            submission = client.submit(RING_GRID)
        job = submission["job"]
        client.wait(job, timeout_s=120)
        payload = client.events(job)
        assert payload["job"] == job
        kinds = [event["event"] for event in payload["events"]]
        assert kinds[0] == "submitted"
        assert "dequeued" in kinds
        assert "cell_finished" in kinds
        assert "finalized" in kinds
        assert kinds.index("submitted") < kinds.index("dequeued")
        assert kinds.index("dequeued") < kinds.index("finalized")
        traces = {
            event["trace_id"]
            for event in payload["events"]
            if "trace_id" in event
        }
        assert traces == {submission["trace_id"]}
        # ...and the POST's access record carries the same ID.
        post = [r for r in access_records(caplog) if r.status == 202]
        assert post and post[0].trace_id == submission["trace_id"]
        seqs = [event["seq"] for event in payload["events"]]
        assert seqs == sorted(seqs)
        offsets = [event["offset_ms"] for event in payload["events"]]
        assert offsets == sorted(offsets)

    def test_done_is_published_after_the_finalized_event(
        self, client, monkeypatch
    ):
        """A poll that reads ``done`` finds the whole flight log.

        Writing ``finalized`` is slowed down, so a job that published
        ``done`` before its last event would be caught in between.
        """
        record = FlightRecorder.record

        def slow_finalized(self, event, force=False, **fields):
            if event == "finalized":
                time.sleep(0.2)
            return record(self, event, force=force, **fields)

        monkeypatch.setattr(FlightRecorder, "record", slow_finalized)
        job = client.submit(RING_GRID)["job"]
        deadline = time.monotonic() + 120
        snapshot = client.poll(job)
        while snapshot["status"] != "done":
            assert snapshot["status"] in ("queued", "running")
            assert time.monotonic() < deadline, "job never finished"
            time.sleep(0.005)
            snapshot = client.poll(job)
        kinds = [event["event"] for event in client.events(job)["events"]]
        assert "finalized" in kinds
        assert snapshot["finished_at"] is not None

    def test_finalized_event_reports_outcome(self, client):
        submission = client.submit(RING_GRID)
        client.wait(submission["job"], timeout_s=120)
        payload = client.events(submission["job"])
        final = [
            event
            for event in payload["events"]
            if event["event"] == "finalized"
        ]
        assert len(final) == 1
        assert final[0]["status"] == "done"
        assert final[0]["executed"] + final[0]["cached"] == 2
        assert final[0]["events_dropped"] == 0

    def test_events_404_for_unknown_job(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.events("nosuchjob")
        assert excinfo.value.status == 404

    def test_flight_file_lives_next_to_store(self, client):
        submission = client.submit(RING_GRID)
        client.wait(submission["job"], timeout_s=120)
        payload = client.events(submission["job"])
        assert payload["path"].endswith(
            f"{submission['job']}.events.ndjson"
        )


#: Six fresh cells: enough to overrun a small flight-recorder cap.
SIX_CELL_GRID = {
    "algorithms": ["randomized"],
    "families": ["ring"],
    "sizes": [8],
    "seeds": 6,
}


def run_queued(root, grid, **queue_kwargs):
    """Run one grid through a started queue; return its events payload."""
    queue = JobQueue(root, **queue_kwargs).start()
    try:
        job, _ = queue.submit(grid)
        assert queue.wait(job.job_id, timeout_s=120)
        return queue.events(job.job_id)
    finally:
        queue.shutdown()


class TestFlightCellEvents:
    def test_cell_events_carry_their_fields(self, tmp_path):
        payload = run_queued(tmp_path / "service", SIX_CELL_GRID)
        events = payload["events"]
        dispatched = [e for e in events if e["event"] == "cell_dispatched"]
        finished = [e for e in events if e["event"] == "cell_finished"]
        assert len(dispatched) == len(finished) == 6
        for event in dispatched:
            assert set(event) >= {"key", "label"}
        for event in finished:
            assert set(event) >= {"key", "status", "source", "elapsed_s"}
            assert (event["status"], event["source"]) == ("ok", "executed")
            assert event["elapsed_s"] >= 0
        assert {e["key"] for e in dispatched} == {e["key"] for e in finished}

    def test_capped_job_drops_cell_events(self, tmp_path):
        payload = run_queued(
            tmp_path / "service", SIX_CELL_GRID, flight_max_events=3
        )
        kinds = [event["event"] for event in payload["events"]]
        assert len(kinds) == 4
        assert kinds[-1] == "finalized"
        assert payload["dropped"] > 0

    def test_finalized_reports_dropped_events(self, tmp_path):
        payload = run_queued(
            tmp_path / "service", SIX_CELL_GRID, flight_max_events=3
        )
        (final,) = [
            event for event in payload["events"]
            if event["event"] == "finalized"
        ]
        assert final["status"] == "done"
        assert final["executed"] == 6
        assert final["events_dropped"] == payload["dropped"] > 0


class TestByteIdentity:
    def test_service_records_fingerprint_identical_to_plain_run(
        self, service, tmp_path
    ):
        """Full telemetry on: fingerprints match a telemetry-off run_jobs."""
        with ServiceClient(service.url, trace_id="feedfacefeedface") as client:
            submission = client.submit(RING_GRID)
            client.wait(submission["job"], timeout_s=120)
            served = client.fetch(submission["job"])["records"]

        plain = run_jobs(
            grid_from_payload(RING_GRID),
            store=tmp_path / "plain.jsonl",
        )
        service_prints = sorted(
            RunRecord.from_dict(record).fingerprint() for record in served
        )
        plain_prints = sorted(
            record.fingerprint() for record in plain.records
        )
        assert service_prints == plain_prints
        # The trace ID is present — but only in the volatile telemetry block.
        assert any(
            record["telemetry"].get("trace_id") == "feedfacefeedface"
            for record in served
        )


class TestHealthzSkippedLines:
    def test_torn_store_line_surfaces_in_healthz(self, service, client):
        queue = service.queue
        job_id = grid_key(grid_from_payload(RING_GRID))
        store = queue.root / "jobs" / f"{job_id}.jsonl"
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text('{"torn": ')  # a writer died mid-append
        assert client.healthz()["store_skipped_lines"] == 0
        client.submit(RING_GRID)
        client.wait(job_id, timeout_s=120)
        health = client.healthz()
        assert health["ok"] is True
        assert health["store_skipped_lines"] == 1
        assert client.stats()["store_skipped_lines"] == 1


class TestClientRetry:
    def make_client(self, snapshots, failures):
        """A client whose poll fails `failures` times, then drains snapshots."""
        client = ServiceClient(
            "http://127.0.0.1:1", retries=5, backoff_s=0.01, backoff_cap_s=0.04
        )
        state = {"failures": failures}

        def fake_poll(job):
            if state["failures"] > 0:
                state["failures"] -= 1
                raise ServiceError(0, {"error": "connection refused"})
            return snapshots.pop(0)

        client.poll = fake_poll
        return client

    def test_wait_retries_transient_connection_errors(self, monkeypatch):
        delays = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: delays.append(s)
        )
        with self.make_client([{"status": "done"}], failures=3) as client:
            assert client.wait("j")["status"] == "done"
        # Capped exponential: 0.01, 0.02, then capped at 0.04.
        assert delays == [0.01, 0.02, 0.04]

    @pytest.mark.parametrize(
        "interval_s, expected",
        [
            (0.05, [0.005, 0.01, 0.02, 0.04, 0.05, 0.05]),
            (0.002, [0.002] * 6),
        ],
    )
    def test_wait_poll_interval_doubles_up_to_interval_s(
        self, monkeypatch, interval_s, expected
    ):
        delays = []
        monkeypatch.setattr("repro.service.client.time.sleep", delays.append)
        snapshots = [{"status": "running"}] * 6 + [{"status": "done"}]
        with self.make_client(snapshots, failures=0) as client:
            final = client.wait("j", interval_s=interval_s)
        assert final["status"] == "done"
        assert delays == expected

    def test_wait_gives_up_after_max_consecutive_failures(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: None
        )
        with self.make_client([], failures=100) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.wait("j")
        assert excinfo.value.status == 0

    def test_success_resets_the_failure_budget(self, monkeypatch):
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: None
        )
        # fail, fail, running, fail, fail, done — never 3 in a row.
        script = [
            ServiceError(0, {"error": "x"}),
            ServiceError(0, {"error": "x"}),
            {"status": "running"},
            ServiceError(0, {"error": "x"}),
            ServiceError(0, {"error": "x"}),
            {"status": "done"},
        ]

        def fake_poll(job):
            step = script.pop(0)
            if isinstance(step, Exception):
                raise step
            return step

        with ServiceClient(
            "http://127.0.0.1:1", retries=2, backoff_s=0.01
        ) as client:
            client.poll = fake_poll
            assert client.wait("j")["status"] == "done"

    def test_http_errors_raise_immediately(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: slept.append(s)
        )

        def fake_poll(job):
            raise ServiceError(404, {"error": "unknown job"})

        with ServiceClient("http://127.0.0.1:1", retries=5) as client:
            client.poll = fake_poll
            with pytest.raises(ServiceError) as excinfo:
                client.wait("j")
        assert excinfo.value.status == 404
        assert slept == []


class TestJsonLogsOverTheWire:
    def test_snapshot_and_stats_expose_trace_id(self, client):
        submission = client.submit(RING_GRID)
        assert submission["trace_id"]
        snapshot = client.poll(submission["job"])
        assert snapshot["trace_id"] == submission["trace_id"]
        payload = json.dumps(snapshot)  # JSON-safe end to end
        assert submission["trace_id"] in payload
