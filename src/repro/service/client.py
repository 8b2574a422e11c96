"""Small stdlib HTTP client for the service API.

:class:`ServiceClient` is what the ``submit`` CLI subcommand uses, and
the reference consumer for anyone scripting against the service: submit
a grid, poll its job hash, block until done, fetch the records.  Errors
come back as :class:`ServiceError` carrying the HTTP status and the
server's JSON payload — never a raw ``http.client`` traceback.

Every call goes over one persistent HTTP/1.1 connection, opened on the
first call and kept until :meth:`ServiceClient.close`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Callable, Dict, Mapping, Optional, Tuple
from urllib.parse import urlsplit

#: Jobs in one of these states have nothing left to wait for.
FINISHED_STATES = ("done", "failed")

#: :meth:`ServiceClient.wait` sleeps this long after its first unfinished
#: poll, then twice as long after each further one, up to ``interval_s``.
FIRST_POLL_INTERVAL_S = 0.005

#: What a server's close of an idle keep-alive connection looks like to
#: the next request on it: no response at all.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class ServiceError(RuntimeError):
    """A non-2xx service response (or no response at all)."""

    def __init__(self, status: int, payload: Dict[str, Any]):
        self.status = status
        self.payload = payload
        message = payload.get("error") or str(payload)
        super().__init__(f"HTTP {status}: {message}")


class ServiceClient:
    """Talk to a running ``repro serve`` daemon.

    .. code-block:: python

        with ServiceClient("http://127.0.0.1:8732") as client:
            job = client.submit({"algorithms": ["randomized"],
                                 "families": ["ring"], "sizes": [16],
                                 "seeds": 3})
            final = client.wait(job["job"])
            records = client.fetch(job["job"])["records"]

    All calls share one persistent connection, opened lazily and
    serialized by a lock, so one client may be used from several
    threads.  When the server has closed a *reused* connection before
    answering (an idle keep-alive timeout, a daemon restart), the call
    reconnects and is sent once more; a failure on a fresh connection, or
    any timeout, raises :class:`ServiceError` with status 0 at once.
    :meth:`close` (or leaving a ``with`` block) drops the connection; a
    later call opens a new one.
    """

    def __init__(
        self,
        base_url: str,
        timeout_s: float = 30.0,
        trace_id: Optional[str] = None,
        retries: int = 5,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = timeout_s
        #: Sent as ``X-Trace-Id`` on every request when set, so a whole
        #: client session correlates in the daemon's access log.
        self.trace_id = trace_id
        #: Transient-connection retry policy used by :meth:`wait` — a
        #: daemon hiccup (restart, listen-queue overflow) mid-poll
        #: shouldn't abandon a job that is still running fine.
        self.retries = max(0, int(retries))
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        url = urlsplit(self.base_url)
        if url.scheme == "https":
            self._connection_class: type = http.client.HTTPSConnection
        elif url.scheme == "http":
            self._connection_class = http.client.HTTPConnection
        else:
            raise ValueError(
                f"service URL must start with http:// or https://: "
                f"{base_url!r}"
            )
        self._netloc = url.netloc
        self._path_prefix = url.path
        self._connection: Optional[http.client.HTTPConnection] = None
        self._lock = threading.Lock()

    # -- transport -----------------------------------------------------

    def close(self) -> None:
        """Close the persistent connection, if one is open."""
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _drop_connection(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def _exchange(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One request/response on the persistent connection."""
        headers: Dict[str, str] = {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        if self.trace_id:
            headers["X-Trace-Id"] = self.trace_id
        with self._lock:
            try:
                return self._exchange_locked(
                    method, self._path_prefix + path, body, headers
                )
            except (OSError, http.client.HTTPException) as error:
                # The connection's state is unknown: never reuse it.
                self._drop_connection()
                raise ServiceError(
                    0, {"error": f"service unreachable: {error}"}
                ) from error

    def _exchange_locked(
        self,
        method: str,
        target: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> Tuple[int, bytes]:
        if self._connection is None:
            self._connection = self._connection_class(
                self._netloc, timeout=self.timeout_s
            )
        connection = self._connection
        # ``sock`` is None before the first connect and after a reply
        # that closed the connection; either way the next send connects.
        reused = connection.sock is not None
        try:
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        except _STALE_CONNECTION_ERRORS:
            if not reused:
                raise
            connection.close()
            connection.request(method, target, body=body, headers=headers)
            response = connection.getresponse()
        return response.status, response.read()

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[int, Dict[str, Any]]:
        data = None
        if payload is not None:
            data = json.dumps(payload, sort_keys=True).encode("utf-8")
        status, body = self._exchange(method, path, data)
        return status, self._decode(body)

    @staticmethod
    def _decode(body: bytes) -> Dict[str, Any]:
        try:
            decoded = json.loads(body or b"{}")
        except ValueError:
            return {"error": body.decode("utf-8", "replace")}
        if isinstance(decoded, dict):
            return decoded
        return {"value": decoded}

    def _checked(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        status, body = self._request(method, path, payload)
        if status >= 400:
            raise ServiceError(status, body)
        return body

    # -- API -----------------------------------------------------------

    def submit(self, grid: Mapping[str, Any]) -> Dict[str, Any]:
        """POST a grid; returns the job snapshot (with ``coalesced``)."""
        return self._checked("POST", "/jobs", grid)

    def poll(self, job: str) -> Dict[str, Any]:
        """GET one job's status/progress snapshot."""
        return self._checked("GET", f"/jobs/{job}")

    def fetch(self, job: str) -> Dict[str, Any]:
        """GET a finished job's summary and records (409 while running)."""
        return self._checked("GET", f"/jobs/{job}/result")

    def events(self, job: str) -> Dict[str, Any]:
        """GET the job's flight-recorder lifecycle events."""
        return self._checked("GET", f"/jobs/{job}/events")

    def healthz(self) -> Dict[str, Any]:
        return self._checked("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._checked("GET", "/stats")

    def metrics_text(self) -> str:
        """GET ``/metrics`` — the raw Prometheus text page."""
        status, body = self._exchange("GET", "/metrics")
        if status >= 400:
            raise ServiceError(status, self._decode(body))
        return body.decode("utf-8", "replace")

    def wait(
        self,
        job: str,
        timeout_s: Optional[float] = None,
        interval_s: float = 0.2,
        on_progress: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> Dict[str, Any]:
        """Poll until the job finishes; returns the final snapshot.

        The first unfinished poll is followed by a sleep of
        :data:`FIRST_POLL_INTERVAL_S`; each further one doubles it, up
        to ``interval_s``, the longest poll interval.  A short job is
        thus seen finished soon after it ends, and a long one is polled
        every ``interval_s``.

        ``on_progress`` receives every intermediate snapshot (the CLI
        uses it to stream progress lines).  Raises ``TimeoutError`` if
        the deadline passes first.

        Transient connection failures (``ServiceError`` with status 0 —
        the daemon restarting, a dropped socket) are retried with capped
        exponential backoff (``backoff_s`` doubling up to
        ``backoff_cap_s``) for up to ``retries`` consecutive failures;
        HTTP error responses (status >= 400) still raise immediately.
        """
        deadline = (
            None if timeout_s is None else time.monotonic() + timeout_s
        )
        failures = 0
        poll_delay = min(interval_s, FIRST_POLL_INTERVAL_S)
        while True:
            try:
                snapshot = self.poll(job)
            except ServiceError as error:
                if error.status != 0 or failures >= self.retries:
                    raise
                failures += 1
                delay = min(
                    self.backoff_cap_s,
                    self.backoff_s * (2 ** (failures - 1)),
                )
                if deadline is not None and (
                    time.monotonic() + delay >= deadline
                ):
                    raise TimeoutError(
                        f"job {job} unreachable after {timeout_s}s: {error}"
                    ) from error
                time.sleep(delay)
                continue
            failures = 0
            if on_progress is not None:
                on_progress(snapshot)
            if snapshot.get("status") in FINISHED_STATES:
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job} still {snapshot.get('status')} "
                    f"after {timeout_s}s"
                )
            time.sleep(poll_delay)
            poll_delay = min(interval_s, 2 * poll_delay)

    def wait_until_up(
        self, timeout_s: float = 10.0, interval_s: float = 0.1
    ) -> Dict[str, Any]:
        """Block until ``/healthz`` answers ok (daemon start-up handshake)."""
        deadline = time.monotonic() + timeout_s
        last_error: Optional[Exception] = None
        while time.monotonic() < deadline:
            try:
                return self.healthz()
            except ServiceError as error:
                last_error = error
                time.sleep(interval_s)
        raise ServiceError(
            0,
            {
                "error": (
                    f"service at {self.base_url} not up after {timeout_s}s: "
                    f"{last_error}"
                )
            },
        )
