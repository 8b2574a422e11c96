"""Torn-line-tolerant reading of append-only JSON Lines files.

The run store (:class:`repro.orchestrator.RunStore`, which also holds the
campaign ledgers) and the service's flight recorder
(:func:`repro.telemetry.load_flight_events`) append one JSON object per
line.  A writer that dies mid-append leaves a truncated final line, so
every reader goes through :func:`read_jsonl`: a line that does not decode
is skipped with a warning and counted in ``skipped_lines``, never raised.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path
from typing import Any, Callable, Dict, Union

logger = logging.getLogger(__name__)


class JsonlLines(list):
    """The decoded lines of one file, in order."""

    #: Lines that did not decode (torn writes, non-object lines).
    skipped_lines: int = 0


def _json_object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise TypeError(f"expected a JSON object, got {type(payload).__name__}")
    return payload


def read_jsonl(
    path: Union[str, Path], decode: Callable[[Any], Any] = _json_object
) -> JsonlLines:
    """Decode every line of ``path``; a missing file reads as empty.

    ``decode`` turns one parsed JSON value into an item; a line is skipped
    when parsing or ``decode`` raises ``ValueError``, ``KeyError`` or
    ``TypeError``.  The default keeps JSON objects and skips other values.
    """
    lines = JsonlLines()
    target = Path(path)
    if not target.exists():
        return lines
    with open(target, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                lines.append(decode(json.loads(line)))
            except (ValueError, KeyError, TypeError) as error:
                lines.skipped_lines += 1
                logger.warning(
                    "skipping malformed line %d of %s "
                    "(torn write from a crashed writer?): %s",
                    number,
                    target,
                    error,
                )
    return lines
