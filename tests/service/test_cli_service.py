"""CLI coverage for ``serve`` and ``submit`` (incl. a real daemon process)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import urllib.request

import pytest

from repro.cli import main
from repro.service import JobQueue, ServiceClient, build_server
from repro.telemetry import load_flight_events, parse_prometheus, validate_promtext

RING_ARGS = ["--families", "ring", "--sizes", "8", "--seeds", "2"]


@pytest.fixture
def service(tmp_path):
    queue = JobQueue(tmp_path / "service").start()
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
def closed_clients(monkeypatch):
    """Base URL of every ``ServiceClient`` closed during the test."""
    closed = []
    close = ServiceClient.close

    def recording_close(client):
        closed.append(client.base_url)
        close(client)

    monkeypatch.setattr(ServiceClient, "close", recording_close)
    return closed


class TestSubmitCLI:
    def test_submit_wait_json(self, service, capsys, closed_clients):
        code = main(
            ["submit", "--url", service.url, *RING_ARGS,
             "--wait", "--json", "--quiet"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "done"
        assert payload["summary"]["failed"] == 0
        assert len(payload["records"]) == 2
        assert closed_clients == [service.url]

    def test_submit_async_then_resubmit_coalesces(self, service, capsys):
        assert main(["submit", "--url", service.url, *RING_ARGS, "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["coalesced"] is False
        with ServiceClient(service.url) as client:
            client.wait(first["job"], timeout_s=120)
        assert main(["submit", "--url", service.url, *RING_ARGS, "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["coalesced"] is True
        assert second["job"] == first["job"]

    def test_submit_streams_progress_lines(self, service, capsys):
        assert main(["submit", "--url", service.url, *RING_ARGS, "--wait"]) == 0
        captured = capsys.readouterr()
        assert "status    : done" in captured.out
        # Progress lines stream on stderr while waiting.
        assert re.search(r"\[\d/2\] status=", captured.err)

    def test_submit_bad_grid_exits_2(self, service, capsys):
        code = main(
            ["submit", "--url", service.url, "--families", "ring",
             "--sizes", "8", "--seeds", "0"]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_submit_unknown_spec_key_exits_2(self, service, tmp_path, capsys):
        spec_file = tmp_path / "grid.json"
        spec_file.write_text(json.dumps({"families": ["ring"], "bogus": 1}))
        code = main(["submit", "--url", service.url, "--spec", str(spec_file)])
        assert code == 2
        assert "HTTP 400: unknown grid keys: ['bogus']" in capsys.readouterr().err

    def test_submit_unreachable_exits_2(self, capsys):
        code = main(["submit", "--url", "http://127.0.0.1:9", *RING_ARGS])
        assert code == 2
        assert "unreachable" in capsys.readouterr().err


class TestClientsClose:
    def test_top_once(self, service, capsys, closed_clients):
        assert main(["top", "--url", service.url, "--once", "--json"]) == 0
        assert "requests_total" in json.loads(capsys.readouterr().out)
        assert closed_clients == [service.url]

    def test_campaign_via_service(self, service, tmp_path, closed_clients):
        spec = tmp_path / "via.json"
        spec.write_text(json.dumps({
            "campaign": {"name": "via"},
            "grids": [{"name": "g", "algorithms": ["randomized"],
                       "families": ["ring"], "sizes": [8], "seeds": 2}],
        }))
        code = main(
            ["campaign", "run", str(spec), "--root", str(tmp_path / "c"),
             "--via-service", service.url, "--quiet"]
        )
        assert code == 0
        assert closed_clients == [service.url]


class TestServeDaemon:
    def test_serve_daemon_round_trip(self, tmp_path):
        """Start the real daemon process, talk to it, shut it down."""
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--root", str(tmp_path / "svc"), "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        ) as process:
            try:
                banner = process.stdout.readline()
                match = re.search(r"http://[\d.]+:\d+", banner)
                assert match, f"no URL in serve banner: {banner!r}"
                with ServiceClient(match.group(0)) as client:
                    client.wait_until_up(timeout_s=30)

                    grid = {
                        "algorithms": ["randomized"],
                        "families": ["ring"],
                        "sizes": [8],
                        "seeds": 2,
                    }
                    first = client.submit(grid)
                    final = client.wait(first["job"], timeout_s=120)
                    assert final["status"] == "done"
                    second = client.submit(grid)
                    assert second["coalesced"] is True
                    records = client.fetch(first["job"])["records"]
                    assert len(records) == 2
            finally:
                process.terminate()
                process.wait(timeout=15)

    def test_json_logging_daemon_serves_a_mixed_grid(self, tmp_path, capsys):
        """A real ``serve --log-json`` daemon, driven as a deployment
        would be: a 16-cell grid over two algorithms and two families
        runs once however it is submitted (client, then CLI); the daemon
        counts fewer connections than requests; its /metrics page, the
        ``top`` snapshot, the flight-recorder file and its JSON access
        lines all show the run."""
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        root = tmp_path / "svc"
        log_path = tmp_path / "serve.log"
        flags = [
            "--algorithms", "randomized", "traditional",
            "--families", "ring", "gnp", "--sizes", "8", "16", "--seeds", "2",
        ]
        grid = {
            "algorithms": ["randomized", "traditional"],
            "families": ["ring", "gnp"],
            "sizes": [8, 16],
            "seeds": 2,
        }
        with open(log_path, "w") as log, subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--root", str(root), "--log-json",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=log,
            text=True,
        ) as process:
            try:
                url = re.search(
                    r"http://[\d.]+:\d+", process.stdout.readline()
                ).group(0)
                with ServiceClient(url) as client:
                    client.wait_until_up(timeout_s=30)
                    first = client.submit(grid)
                    assert first["coalesced"] is False
                    final = client.wait(first["job"], timeout_s=300)
                    assert final["status"] == "done"
                    second = client.submit(grid)
                    assert second["coalesced"] is True
                    assert second["job"] == first["job"]
                    stats = client.stats()
                    assert stats["jobs"]["total"] == 1
                    assert stats["submissions"] == {"total": 2, "coalesced": 1}
                    result = client.fetch(first["job"])
                    assert result["summary"]["failed"] == 0
                    assert len(result["records"]) == 16

                command = ["submit", "--url", url, *flags, "--wait", "--json"]
                assert main([*command, "--quiet"]) == 0
                submitted = json.loads(capsys.readouterr().out)
                assert submitted["status"] == "done"
                assert submitted["summary"]["failed"] == 0
                assert len(submitted["records"]) == 16

                # Connection reuse, as the daemon counts it.
                with ServiceClient(url) as client:
                    samples = parse_prometheus(client.metrics_text())
                requests = sum(
                    value
                    for key, value in samples.items()
                    if key.startswith("service_http_requests_total{")
                )
                assert requests > 0
                assert samples["service_http_connections_total"] < requests

                # A plain scrape of /metrics, as Prometheus makes it.
                with urllib.request.urlopen(f"{url}/metrics") as response:
                    text = response.read().decode()
                assert validate_promtext(text) > 0
                scraped = parse_prometheus(text)
                coalesced = 'service_submissions_total{kind="coalesced"}'
                assert scraped.get(coalesced, 0) >= 1
                assert any(
                    key.startswith("service_http_request_seconds_bucket{")
                    for key in scraped
                )

                assert main(["top", "--url", url, "--once", "--json"]) == 0
                sample = json.loads(capsys.readouterr().out)
                assert sample["jobs"]["done"] >= 1
                assert sample["coalesced"] >= 1
                assert sample["requests_total"] > 0
            finally:
                process.terminate()
                process.wait(timeout=15)

        (path,) = (root / "jobs").glob("*.events.ndjson")
        events = load_flight_events(path)
        kinds = [event["event"] for event in events]
        assert kinds[0] == "submitted" and "finalized" in kinds
        assert len({e["trace_id"] for e in events if "trace_id" in e}) == 1
        lines = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.startswith("{")
        ]
        access = [
            line for line in lines if line.get("logger") == "repro.service.access"
        ]
        assert access
        assert all("trace_id" in line and "duration_ms" in line for line in access)

    def test_sigterm_ends_the_warm_workers(self, tmp_path, survivors):
        """A daemon stopped with SIGTERM drains like Ctrl-C: it exits 0
        and its idle pool workers end with it."""
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        with subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve", "--port", "0",
                "--root", str(tmp_path / "svc"), "--job-workers", "2", "--quiet",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        ) as process:
            try:
                url = re.search(r"http://[\d.]+:\d+", process.stdout.readline())
                with ServiceClient(url.group(0)) as client:
                    client.wait_until_up(timeout_s=30)
                    job = client.submit(
                        {"algorithms": ["randomized"], "families": ["ring"],
                         "sizes": [8], "seeds": 4}
                    )["job"]
                    assert client.wait(job, timeout_s=120)["status"] == "done"
                    records = client.fetch(job)["records"]
            finally:
                process.terminate()
                code = process.wait(timeout=15)
        assert code == 0
        assert not survivors({record["telemetry"]["pid"] for record in records})
