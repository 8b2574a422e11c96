"""Correlated structured logging: trace IDs and a JSON log formatter.

A **trace ID** is a 16-hex-char token minted once per submission — at
``POST /jobs``, or by the ``batch``/``run`` CLI — and carried through
every layer the submission touches via a :mod:`contextvars` variable.
Whatever logs while the context is active (the HTTP access logger, the
queue, ``run_jobs``, a pool worker running one of the batch's tasks)
stamps the same ID on its lines, so one ``grep`` (or one
``jq 'select(.trace_id == ...)'``) reconstructs a submission's whole
journey across threads and processes.

Two formatters share the stamping logic:

* :class:`JsonLogFormatter` — one JSON object per line (``ts``,
  ``level``, ``logger``, ``message``, ``trace_id``, plus any ``extra``
  fields the call site attached), for log pipelines.
* :class:`TextLogFormatter` — the human fallback, appending
  ``[trace:<id>]`` when a trace is active.

:func:`configure_logging` wires either onto the ``repro`` logger tree;
``repro serve --log-json/--log-file`` is the CLI entry point.

None of this touches simulation state: logging is volatile telemetry,
and runs are byte-identical with it on or off (see
``RunRecord.fingerprint`` and the service byte-identity tests).
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import logging
import uuid
from typing import Any, Dict, Iterator, Optional, TextIO, Union

#: The ambient trace ID for the current execution context (thread/task).
_TRACE_ID: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "repro_trace_id", default=None
)

#: Logger all HTTP access records go through (see satellite: the server
#: must not swallow access logs).
ACCESS_LOGGER_NAME = "repro.service.access"


def new_trace_id() -> str:
    """Mint a fresh 16-hex-char trace ID."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> Optional[str]:
    """The trace ID active in this context, or ``None``."""
    return _TRACE_ID.get()


def set_trace_id(trace_id: Optional[str]) -> contextvars.Token:
    """Set the ambient trace ID; returns the token for ``reset_trace_id``."""
    return _TRACE_ID.set(trace_id)


def reset_trace_id(token: contextvars.Token) -> None:
    _TRACE_ID.reset(token)


@contextlib.contextmanager
def trace_context(trace_id: Optional[str] = None) -> Iterator[str]:
    """Run a block under a trace ID (minting one if not given)."""
    active = trace_id or new_trace_id()
    token = _TRACE_ID.set(active)
    try:
        yield active
    finally:
        _TRACE_ID.reset(token)


#: ``LogRecord`` attribute names that are plumbing, not payload — anything
#: else found on a record came from ``extra=`` and belongs in the output.
_RESERVED_RECORD_FIELDS = frozenset(
    (
        "args",
        "asctime",
        "created",
        "exc_info",
        "exc_text",
        "filename",
        "funcName",
        "levelname",
        "levelno",
        "lineno",
        "message",
        "module",
        "msecs",
        "msg",
        "name",
        "pathname",
        "process",
        "processName",
        "relativeCreated",
        "stack_info",
        "taskName",
        "thread",
        "threadName",
    )
)


def _record_extras(record: logging.LogRecord) -> Dict[str, Any]:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _RESERVED_RECORD_FIELDS and not key.startswith("_")
    }


def _record_trace_id(record: logging.LogRecord) -> Optional[str]:
    """A record's trace ID: explicit ``extra`` wins, else the context's."""
    explicit = getattr(record, "trace_id", None)
    return explicit if explicit else current_trace_id()


class JsonLogFormatter(logging.Formatter):
    """Render each record as one sorted-key JSON object per line."""

    def format(self, record: logging.LogRecord) -> str:
        payload: Dict[str, Any] = {
            "ts": round(record.created, 6),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        trace_id = _record_trace_id(record)
        if trace_id is not None:
            payload["trace_id"] = trace_id
        for key, value in _record_extras(record).items():
            payload.setdefault(key, value)
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, sort_keys=True, default=str)


class TextLogFormatter(logging.Formatter):
    """Human-readable lines that still carry the trace correlation."""

    def __init__(self) -> None:
        super().__init__("%(asctime)s %(levelname)s %(name)s %(message)s")

    def format(self, record: logging.LogRecord) -> str:
        line = super().format(record)
        trace_id = _record_trace_id(record)
        if trace_id is not None:
            line = f"{line} [trace:{trace_id}]"
        return line


#: Marker attribute so repeated `configure_logging` calls replace only
#: the handlers this module installed (tests reconfigure freely).
_MANAGED_ATTR = "_repro_telemetry_handler"


def configure_logging(
    json_logs: bool = False,
    log_file: Optional[str] = None,
    level: int = logging.INFO,
    stream: Optional[TextIO] = None,
    logger: Union[str, logging.Logger] = "repro",
) -> logging.Logger:
    """Attach a structured-log handler to the ``repro`` logger tree.

    ``json_logs`` selects :class:`JsonLogFormatter`; ``log_file`` writes
    there instead of ``stream`` (default ``stderr``).  Re-invoking
    replaces previously installed handlers, so tests and long-lived
    daemons can reconfigure without duplicating output.
    """
    root = logging.getLogger(logger) if isinstance(logger, str) else logger
    for handler in list(root.handlers):
        if getattr(handler, _MANAGED_ATTR, False):
            root.removeHandler(handler)
            handler.close()
    handler: logging.Handler
    if log_file is not None:
        handler = logging.FileHandler(log_file, encoding="utf-8")
    else:
        handler = logging.StreamHandler(stream)
    handler.setFormatter(JsonLogFormatter() if json_logs else TextLogFormatter())
    setattr(handler, _MANAGED_ATTR, True)
    root.addHandler(handler)
    root.setLevel(level)
    return root


def access_logger() -> logging.Logger:
    """The logger HTTP access records are emitted on."""
    return logging.getLogger(ACCESS_LOGGER_NAME)


def log_access(
    method: str,
    path: str,
    status: int,
    duration_ms: float,
    trace_id: Optional[str] = None,
    **extra: Any,
) -> None:
    """Emit one structured access record (the server's per-request line)."""
    access_logger().info(
        '%s %s -> %d (%.1f ms)',
        method,
        path,
        status,
        duration_ms,
        extra={
            "method": method,
            "path": path,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "trace_id": trace_id or current_trace_id(),
            **extra,
        },
    )
