"""Stdlib HTTP front door for the job queue (no new runtime deps).

A thin router over :class:`repro.service.queue.JobQueue` — every
endpoint parses the path, calls one queue method, and serialises the
answer as JSON.  All policy (dedupe, coalescing, retries, persistence)
lives in the queue; the server adds nothing but transport plus
telemetry: every request is stamped with a trace ID (honouring an
``X-Trace-Id`` request header, minting one otherwise, echoing it back
in the response), produces exactly one structured access-log record,
and increments RED metrics (request counter + latency histogram per
method/endpoint/status) on the queue's registry.

Endpoints
---------
``POST /jobs``
    Submit a grid payload (the ``batch --spec`` schema).  Returns the
    job-state snapshot plus ``coalesced``; ``202`` for a newly enqueued
    job, ``200`` when the submission coalesced onto an existing one.
``GET /jobs/<hash>``
    Poll a job: lifecycle status, live progress snapshot, obs registry
    dump.  ``404`` for an unknown hash.
``GET /jobs/<hash>/result``
    Fetch the finished job's summary and run records.  ``409`` while the
    job is still queued/running.
``GET /jobs/<hash>/events``
    The job's flight-recorder payload: the lifecycle event chain
    (submitted → … → finalized), its trace ID, and the drop count.
``GET /healthz``
    Liveness: worker threads alive, queue depth, torn-store-line count.
``GET /stats``
    Queue depth, per-state job counts, dedupe counters, cache hit rate,
    per-job progress, service metrics dump.
``GET /metrics``
    The service registry in Prometheus text exposition format
    (version 0.0.4), deterministically ordered.
"""

from __future__ import annotations

import json
import sys
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.telemetry import (
    PROMETHEUS_CONTENT_TYPE,
    log_access,
    new_trace_id,
    render_prometheus,
    reset_trace_id,
    set_trace_id,
)
from repro.telemetry.logs import access_logger

from .queue import JobQueue

#: Submission bodies larger than this are rejected outright (a grid
#: spec is a few hundred bytes; anything megabyte-sized is a mistake).
MAX_BODY_BYTES = 1 << 20

#: HELP strings for the service metric families served at ``/metrics``.
METRIC_HELP = {
    "service.http_connections": "TCP connections accepted.",
    "service.http_requests": "HTTP requests served, by method/endpoint/status.",
    "service.http_request_seconds": "HTTP request handling latency.",
    "service.queue_wait_seconds": "Time jobs spent queued before a drainer picked them up.",
    "service.job_seconds": "Wall-clock job duration, by final status.",
    "service.jobs": "Jobs finished, by final status.",
    "service.submissions": "Grid submissions, by dedupe outcome (new/coalesced/retry).",
    "service.cells": "Cells resolved across all jobs, by source (executed/cache/resume).",
    "service.cells_failed": "Cells that exhausted retries across all jobs.",
    "service.queue_depth": "Jobs currently queued (not yet running).",
    "service.cache_hit_rate": "Shared result-cache hit rate since daemon start.",
    "service.store_skipped_lines": "Torn JSONL lines skipped while resuming job stores.",
    "service.worker_heartbeat": "Unix time of each drainer thread's last liveness stamp.",
}


def normalize_endpoint(path: str) -> str:
    """Collapse a request path to a low-cardinality metric label.

    Job hashes are replaced with ``{id}`` so the label set stays bounded
    however many jobs the daemon has seen; unknown paths collapse to
    ``other`` so probes cannot mint unbounded label values.
    """
    parts = [part for part in path.split("/") if part]
    if not parts:
        return "/"
    if parts[0] == "jobs":
        if len(parts) == 1:
            return "/jobs"
        if len(parts) == 2:
            return "/jobs/{id}"
        if len(parts) == 3 and parts[2] in ("result", "events"):
            return "/jobs/{id}/" + parts[2]
        return "other"
    if len(parts) == 1 and parts[0] in ("healthz", "stats", "metrics"):
        return "/" + parts[0]
    return "other"


class ServiceServer(ThreadingHTTPServer):
    """ThreadingHTTPServer bound to one :class:`JobQueue`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], queue: JobQueue):
        super().__init__(address, ServiceHandler)
        self.queue = queue

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def process_request(self, request: Any, client_address: Any) -> None:
        # Runs on the accept loop's one thread, so no increment is lost.
        self.queue.registry.counter("service.http_connections").inc()
        super().process_request(request, client_address)


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the queue; every response is one JSON object.

    Connections stay open (HTTP/1.1 keep-alive) until the client closes
    them or a reply carries ``Connection: close``.
    """

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # A reply is written as headers, then body.  With Nagle's algorithm
    # the body waits for the client's (delayed) ACK of the headers, which
    # costs a keep-alive client tens of milliseconds per request.
    disable_nagle_algorithm = True

    # Typed accessor: BaseHTTPRequestHandler exposes the server untyped.
    @property
    def queue(self) -> JobQueue:
        return self.server.queue  # type: ignore[attr-defined]

    # -- telemetry -------------------------------------------------------

    def _begin(self) -> None:
        """Stamp the request with a start time and a trace ID.

        Honours an ``X-Trace-Id`` request header (so a client can carry
        its own correlation token through the daemon and into worker
        logs); mints a fresh ID otherwise.  The ID is installed as the
        ambient context trace for everything this handler thread does —
        including ``queue.submit``, which adopts it for the job.
        """
        self._started_at = time.monotonic()
        self._trace_id = (
            self.headers.get("X-Trace-Id") or new_trace_id()
        ).strip()[:64]
        self._trace_token = set_trace_id(self._trace_id)

    def _end(self) -> None:
        token = getattr(self, "_trace_token", None)
        if token is not None:
            reset_trace_id(token)
            self._trace_token = None

    def log_request(self, code: Any = "-", size: Any = "-") -> None:
        """Emit exactly one structured access record per response.

        ``send_response`` calls this once per reply (including replies
        the stdlib generates itself, e.g. ``501`` for an unknown
        method), which makes it the single choke point for access logs
        and RED metrics — the default implementation's ``log_message``
        stderr write is replaced wholesale.
        """
        status = int(code) if str(code).isdigit() else 0
        started = getattr(self, "_started_at", None)
        duration_ms = (
            round((time.monotonic() - started) * 1000.0, 3)
            if started is not None
            else None
        )
        raw_path = urlsplit(getattr(self, "path", "") or "").path
        endpoint = normalize_endpoint(raw_path)
        method = getattr(self, "command", None) or "-"
        registry = self.queue.registry
        registry.counter("service.http_requests").inc(
            method=method, endpoint=endpoint, status=str(status)
        )
        if duration_ms is not None:
            registry.histogram("service.http_request_seconds").observe(
                duration_ms / 1000.0, method=method, endpoint=endpoint
            )
        log_access(
            method,
            raw_path,
            status,
            duration_ms if duration_ms is not None else -1.0,
            trace_id=getattr(self, "_trace_id", None),
            endpoint=endpoint,
        )

    def log_error(self, format: str, *args: Any) -> None:
        access_logger().error(format % args if args else format)

    # -- responses -------------------------------------------------------

    def _reply(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._reply_bytes(status, body, "application/json")

    def _reply_bytes(
        self, status: int, body: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        trace_id = getattr(self, "_trace_id", None)
        if trace_id:
            self.send_header("X-Trace-Id", trace_id)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, __code: int, __message: str, **extra: Any) -> None:
        self._reply(__code, {"error": __message, **extra})

    # -- GET -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._begin()
        try:
            self._route_get()
        finally:
            self._end()

    def _route_get(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/healthz":
            payload = self.queue.healthz()
            self._reply(200 if payload["ok"] else 503, payload)
            return
        if path == "/stats":
            self._reply(200, self.queue.stats())
            return
        if path == "/metrics":
            page = render_prometheus(self.queue.registry, help_texts=METRIC_HELP)
            self._reply_bytes(200, page.encode("utf-8"), PROMETHEUS_CONTENT_TYPE)
            return
        job_id, subresource = self._parse_job_path(path)
        if job_id is None:
            self._error(404, f"unknown endpoint {path!r}")
            return
        if subresource == "events":
            events = self.queue.events(job_id)
            if events is None:
                self._error(404, f"unknown job {job_id!r}")
                return
            self._reply(200, events)
            return
        snapshot = self.queue.status(job_id)
        if snapshot is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if subresource is None:
            self._reply(200, snapshot)
            return
        result = self.queue.result(job_id)
        if result is None:
            self._error(
                409,
                f"job {job_id!r} is not finished",
                status=snapshot["status"],
                progress=snapshot["progress"],
            )
            return
        self._reply(200, result)

    @staticmethod
    def _parse_job_path(path: str) -> Tuple[Optional[str], Optional[str]]:
        """``/jobs/<hash>[/result|/events]`` → ``(hash, subresource)``."""
        parts = [part for part in path.split("/") if part]
        if len(parts) == 2 and parts[0] == "jobs":
            return parts[1], None
        if (
            len(parts) == 3
            and parts[0] == "jobs"
            and parts[2] in ("result", "events")
        ):
            return parts[1], parts[2]
        return None, None

    # -- POST ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._begin()
        try:
            self._route_post()
        finally:
            self._end()

    def _refuse(self, code: int, message: str) -> None:
        """Error reply sent before the request body was read.

        It closes the connection: on a kept-alive one the unread body
        would be parsed as the next request.
        """
        self.close_connection = True
        self._error(code, message)

    def _route_post(self) -> None:
        path = urlsplit(self.path).path.rstrip("/")
        if path != "/jobs":
            self._refuse(404, f"unknown endpoint {path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._refuse(400, "bad Content-Length header")
            return
        if length <= 0 or length > MAX_BODY_BYTES:
            self._refuse(400, f"body must be 1..{MAX_BODY_BYTES} bytes")
            return
        body = self.rfile.read(length)
        try:
            grid = json.loads(body)
        except ValueError as error:
            self._error(400, f"body is not valid JSON: {error}")
            return
        if not isinstance(grid, dict):
            self._error(400, "grid payload must be a JSON object")
            return
        try:
            job, coalesced = self.queue.submit(
                grid, trace_id=getattr(self, "_trace_id", None)
            )
        except ValueError as error:
            self._error(400, str(error))
            return
        payload = job.snapshot()
        payload["coalesced"] = coalesced
        self._reply(200 if coalesced else 202, payload)


def build_server(
    queue: JobQueue, host: str = "127.0.0.1", port: int = 0
) -> ServiceServer:
    """Bind a server (``port=0`` picks an ephemeral port) — not serving yet.

    The caller owns the serve loop, which keeps this usable both from
    the CLI daemon (``serve_forever`` on the main thread) and from tests
    (``serve_forever`` on a background thread, ``shutdown()`` to stop).
    """
    return ServiceServer((host, port), queue)


def serve_forever(server: ServiceServer) -> None:
    """Run the accept loop until ``KeyboardInterrupt``; then drain."""
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.server_close()
        server.queue.shutdown()
