"""End-to-end HTTP API: submit → poll → fetch over a real ephemeral port."""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest

from repro.orchestrator import ResultCache
from repro.service import (
    JobQueue,
    ServiceClient,
    ServiceError,
    ServiceHandler,
    build_server,
)
from repro.telemetry import parse_prometheus

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
def connection_attempts(monkeypatch):
    """Every ``(host, port)`` a client connects to during the test."""
    attempts = []
    create_connection = socket.create_connection

    def counting(address, *args, **kwargs):
        attempts.append(address)
        return create_connection(address, *args, **kwargs)

    monkeypatch.setattr(socket, "create_connection", counting)
    return attempts


def accepted_connections(client):
    samples = parse_prometheus(client.metrics_text())
    return samples["service_http_connections_total"]


@pytest.fixture
def client(service):
    with ServiceClient(service.url) as client:
        yield client


@pytest.fixture
def idle_service(tmp_path):
    """A server whose queue has no workers: jobs stay queued forever."""
    queue = JobQueue(tmp_path / "idle")  # never started
    server = build_server(queue, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestEndToEnd:
    def test_submit_poll_wait_fetch(self, client):
        assert client.wait_until_up()["ok"] is True

        submission = client.submit(RING_GRID)
        assert submission["coalesced"] is False
        assert submission["cells"] == 2
        job = submission["job"]

        snapshots = []
        final = client.wait(job, timeout_s=120, on_progress=snapshots.append)
        assert final["status"] == "done"
        assert final["progress"]["done"] == 2
        assert snapshots  # on_progress saw at least one snapshot

        result = client.fetch(job)
        assert result["summary"]["failed"] == 0
        assert len(result["records"]) == 2
        for record in result["records"]:
            assert record["status"] == "ok"
            assert record["metrics"]["correct"] is True

    def test_duplicate_submission_coalesces_over_http(self, client):
        first = client.submit(RING_GRID)
        client.wait(first["job"], timeout_s=120)
        second = client.submit(RING_GRID)
        assert second["coalesced"] is True
        assert second["job"] == first["job"]
        stats = client.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["submissions"] == {"total": 2, "coalesced": 1}

    def test_stats_and_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["workers_alive"] == 1
        stats = client.stats()
        assert stats["queue_depth"] == 0
        assert stats["workers"]["alive"] == 1
        assert stats["cache"]["hit_rate"] == 0.0


class TestErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.poll("deadbeef")
        assert excinfo.value.status == 404
        with pytest.raises(ServiceError) as excinfo:
            client.fetch("deadbeef")
        assert excinfo.value.status == 404

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._checked("GET", "/nope")
        assert excinfo.value.status == 404

    def test_result_before_done_409(self, idle_service):
        with ServiceClient(idle_service.url) as client:
            job = client.submit(RING_GRID)["job"]
            with pytest.raises(ServiceError) as excinfo:
                client.fetch(job)
            assert excinfo.value.status == 409
            assert excinfo.value.payload["status"] == "queued"
            # ...but polling the queued job works fine.
            assert client.poll(job)["status"] == "queued"

    def test_bad_grid_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"algorithms": ["randomized"], "bogus": [1]})
        assert excinfo.value.status == 400
        assert "bogus" in str(excinfo.value)

    def test_malformed_json_400(self, service):
        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST", "/jobs", body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_non_object_grid_400(self, client):
        status, payload = client._request("POST", "/jobs", ["not", "a", "dict"])
        assert status == 400
        assert "object" in payload["error"]

    def test_unreachable_service(self, connection_attempts):
        with ServiceClient("http://127.0.0.1:9", timeout_s=1.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 0
        assert "service unreachable" in str(excinfo.value)
        # A fresh connection that fails is not retried.
        assert connection_attempts == [("127.0.0.1", 9)]

    def test_base_url_path_prefix_is_kept(self, service):
        with ServiceClient(service.url + "/prefix/") as client:
            with pytest.raises(ServiceError) as excinfo:
                client.healthz()
        assert excinfo.value.status == 404
        assert "/prefix/healthz" in str(excinfo.value)

    def test_base_url_without_http_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="http"):
            ServiceClient("127.0.0.1:8732")


class TestKeepAlive:
    @pytest.mark.parametrize(
        "path, content_length",
        [("/nope", "8"), ("/jobs", "bogus"), ("/jobs", str(2 << 20))],
        ids=["unknown-path", "bad-length", "oversized-length"],
    )
    def test_reply_before_reading_the_body_closes_the_connection(
        self, service, path, content_length
    ):
        """An unread POST body must not be parsed as the next request."""
        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.putrequest("POST", path)
            connection.putheader("Content-Length", content_length)
            connection.endheaders(b'{"x": 1}')
            refused = connection.getresponse()
            refused.read()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert refused.status in (400, 404)
        assert refused.getheader("Connection") == "close"
        assert response.status == 200
        assert payload["ok"] is True


class OneRequestPerConnection(ServiceHandler):
    """Answers one request, then closes without ``Connection: close``."""

    def handle(self):
        self.handle_one_request()


class SlowHandler(ServiceHandler):
    delay_s = 0.0

    def do_GET(self):
        time.sleep(self.delay_s)
        super().do_GET()


class TestPersistentConnection:
    def test_one_connection_carries_every_call(self, client):
        job = client.submit(RING_GRID)["job"]
        client.wait(job, timeout_s=120)
        for _ in range(3):
            client.poll(job)
        client.fetch(job)
        client.events(job)
        client.stats()
        client.healthz()
        assert client.submit(RING_GRID)["coalesced"] is True
        client.metrics_text()
        assert accepted_connections(client) == 1

    def test_next_call_after_a_closing_reply_reconnects(self, client):
        status, _ = client._request("POST", "/nope", {"x": 1})
        assert status == 404
        assert client.healthz()["ok"] is True
        assert accepted_connections(client) == 2

    def test_dropped_reused_connection_is_retried_once(self, service):
        service.RequestHandlerClass = OneRequestPerConnection
        with ServiceClient(service.url) as client:
            for _ in range(3):
                assert client.healthz()["ok"] is True
            # Each call after the first found its connection closed.
            assert accepted_connections(client) == 4

    def test_timeout_on_a_reused_connection_is_not_retried(
        self, service, connection_attempts
    ):
        service.RequestHandlerClass = SlowHandler
        with ServiceClient(service.url, timeout_s=0.2) as client:
            assert client.healthz()["ok"] is True
            SlowHandler.delay_s = 1.0
            try:
                with pytest.raises(ServiceError) as excinfo:
                    client.healthz()
            finally:
                SlowHandler.delay_s = 0.0
        assert excinfo.value.status == 0
        assert len(connection_attempts) == 1

    def test_polls_on_one_connection_do_not_stall(self, idle_service):
        with ServiceClient(idle_service.url) as client:
            job = client.submit(RING_GRID)["job"]
            started = time.monotonic()
            for _ in range(20):
                client.poll(job)
            elapsed = time.monotonic() - started
        # A Nagle stall waits for a delayed ACK on every reply: ~0.9 s here.
        assert elapsed < 0.5
