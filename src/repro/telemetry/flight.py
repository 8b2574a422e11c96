"""Job flight recorder: a bounded per-job NDJSON event log.

Every submitted job gets one ``<hash>.events.ndjson`` file next to its
JSONL run store, appended to by the service as the job moves through its
lifecycle: ``submitted``, ``coalesced``, ``requeued``, ``dequeued``,
``cell_dispatched``, ``cell_finished``, ``cell_retried``,
``cell_crashed``, ``finalized``.  Each event carries the job's
``trace_id`` (the one minted at submission — the same ID on the access
log lines and worker log lines for that submission), a monotonic
``offset_ms`` since the recorder was opened, and a ``seq`` number.

The log is **bounded**: past ``max_events`` events, non-forced events
are counted in :attr:`FlightRecorder.dropped` instead of written, so a
pathological grid cannot grow a flight file without bound.  The
``finalized`` event is always written (``force=True``) and reports the
drop count, so a truncated recording is self-describing.

Appends are best-effort telemetry — an unwritable disk degrades to
counting drops, never to failing the job.  Reads go through
:func:`load_flight_events`, which shares ``RunStore.load``'s reader: torn
trailing lines from a crashed writer are skipped and counted.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.jsonl import JsonlLines, read_jsonl

#: Default per-job event cap.  Generous for real grids (a 1000-cell grid
#: emits ~2 events per cell) while bounding the file for runaway ones.
DEFAULT_MAX_EVENTS = 4096

#: The event vocabulary, in lifecycle order (cell events repeat).
FLIGHT_EVENTS = (
    "submitted",
    "coalesced",
    "requeued",
    "dequeued",
    "cell_dispatched",
    "cell_finished",
    "cell_retried",
    "cell_crashed",
    "finalized",
)


def flight_path_for(store_path: Union[str, Path]) -> Path:
    """The flight-recorder path paired with a job's JSONL run store."""
    store = Path(store_path)
    return store.with_name(f"{store.stem}.events.ndjson")


class FlightRecorder:
    """Append lifecycle events for one job to a bounded NDJSON file."""

    def __init__(
        self,
        path: Union[str, Path],
        trace_id: Optional[str] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.path = Path(path)
        self.trace_id = trace_id
        self.max_events = max(1, int(max_events))
        self.dropped = 0
        self._clock = clock
        self._origin = clock()
        self._seq = 0
        self._lock = threading.Lock()

    def record(self, event: str, force: bool = False, **fields: Any) -> bool:
        """Append one event; returns ``False`` when the cap dropped it.

        ``force`` bypasses the cap (used for ``finalized`` so the tail of
        a truncated recording still reports how it ended and how much was
        dropped).  Never raises on I/O errors — a failed append counts as
        a drop.
        """
        with self._lock:
            if self._seq >= self.max_events and not force:
                self.dropped += 1
                return False
            payload: Dict[str, Any] = {
                "seq": self._seq,
                "event": event,
                "offset_ms": round((self._clock() - self._origin) * 1000.0, 3),
            }
            if self.trace_id is not None:
                payload["trace_id"] = self.trace_id
            payload.update(fields)
            self._seq += 1
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(payload, sort_keys=True, default=str))
                    handle.write("\n")
            except OSError:
                self.dropped += 1
                return False
        return True

    @property
    def recorded(self) -> int:
        """Events written so far (drops excluded)."""
        return self._seq


def load_flight_events(path: Union[str, Path]) -> JsonlLines:
    """Read a flight file's events, in order.

    Torn or non-object lines are skipped and counted in the result's
    ``skipped_lines`` (see :func:`repro.jsonl.read_jsonl`).
    """
    return read_jsonl(path)
