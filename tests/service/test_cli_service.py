"""CLI coverage for ``serve`` and ``submit`` (incl. a real daemon process)."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading

import pytest

from repro.cli import main
from repro.service import JobQueue, ServiceClient, build_server

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
