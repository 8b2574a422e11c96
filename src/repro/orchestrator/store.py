"""Append-only JSONL run store with atomic appends and resume support.

Each line is one schema-versioned :class:`RunRecord` — a job spec, its
status (``ok`` / ``failed``), the deterministic metrics, and volatile
telemetry (timings, attempts, worker PID).  Appends are a single
``write`` + ``fsync`` of one newline-terminated line, and :meth:`RunStore.load`
tolerates a torn trailing line, so a store interrupted mid-run is always
readable and resumable.

The deterministic portion of a record (everything except ``telemetry``)
is exposed via :meth:`RunRecord.fingerprint` — byte-identical across
serial, pooled, and cache-replayed executions of the same spec.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Union

from repro.jsonl import read_jsonl

from .jobs import JobSpec, canonical_json

#: Bump when the record layout changes incompatibly.
SCHEMA_VERSION = 1

STATUS_OK = "ok"
STATUS_FAILED = "failed"


@dataclass
class RunRecord:
    """One job outcome: spec + status + metrics (or error) + telemetry."""

    key: str
    spec: Dict[str, Any]
    status: str
    metrics: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    schema: int = SCHEMA_VERSION
    #: Volatile, non-deterministic extras: elapsed seconds, attempts,
    #: worker PID, cache provenance.  Never part of the fingerprint.
    telemetry: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def ok(
        cls,
        spec: JobSpec,
        metrics: Dict[str, Any],
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> "RunRecord":
        return cls(
            key=spec.key,
            spec=spec.to_dict(),
            status=STATUS_OK,
            metrics=metrics,
            telemetry=dict(telemetry or {}),
        )

    @classmethod
    def failed(
        cls,
        spec: JobSpec,
        error: str,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> "RunRecord":
        return cls(
            key=spec.key,
            spec=spec.to_dict(),
            status=STATUS_FAILED,
            error=error,
            telemetry=dict(telemetry or {}),
        )

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": self.schema,
            "key": self.key,
            "spec": self.spec,
            "status": self.status,
        }
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.error is not None:
            payload["error"] = self.error
        payload["telemetry"] = self.telemetry
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunRecord":
        return cls(
            key=payload["key"],
            spec=dict(payload["spec"]),
            status=payload["status"],
            metrics=payload.get("metrics"),
            error=payload.get("error"),
            schema=payload.get("schema", SCHEMA_VERSION),
            telemetry=dict(payload.get("telemetry") or {}),
        )

    def fingerprint(self) -> bytes:
        """Canonical bytes of the deterministic portion of this record.

        Identical for the same spec regardless of how it was executed
        (serially, in a worker pool, or replayed from cache).
        """
        deterministic = {
            "schema": self.schema,
            "key": self.key,
            "spec": self.spec,
            "status": self.status,
            "metrics": self.metrics,
            "error": self.error,
        }
        return canonical_json(deterministic).encode()


class RunStore:
    """Append-only JSONL ledger of :class:`RunRecord` lines."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        #: Malformed lines skipped by the last :meth:`load` (torn writes).
        self.skipped_lines = 0

    def append(self, record: RunRecord) -> None:
        """Append one record as a single atomic line write."""
        line = json.dumps(record.to_dict(), sort_keys=True) + "\n"
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    def extend(self, records: Iterable[RunRecord]) -> None:
        for record in records:
            self.append(record)

    def load(self) -> List[RunRecord]:
        """Read all records; tolerate (and count) torn/malformed lines.

        A writer that died mid-append (a crashed worker, a killed
        daemon) leaves a truncated final line.  Such lines are skipped
        with a warning — never an exception — and counted in
        :attr:`skipped_lines` (see :func:`repro.jsonl.read_jsonl`), so a
        store always remains loadable and resumable by its own successor
        process.
        """
        records = read_jsonl(self.path, RunRecord.from_dict)
        self.skipped_lines = records.skipped_lines
        return records

    def latest_by_key(self) -> Dict[str, RunRecord]:
        """Latest record per job key (later lines supersede earlier ones)."""
        latest: Dict[str, RunRecord] = {}
        for record in self.load():
            latest[record.key] = record
        return latest


def load_records(path: Union[str, Path]) -> List[RunRecord]:
    """Convenience: read every record from a store file."""
    return RunStore(path).load()
