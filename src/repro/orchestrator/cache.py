"""Content-addressed on-disk result cache.

Entries are keyed by job content hash *and* code version: the layout is
``root/<version>/<key[:2]>/<key>.json``, so bumping ``repro.__version__``
(or passing an explicit ``version``) invalidates every prior entry
without deleting anything.  Only successful records are cached, and only
their deterministic portion (spec + metrics) — telemetry never enters
the cache, which is what makes cache replays byte-identical to live runs.

Writes go through a temp file + ``os.replace`` so a crashed writer can
never leave a torn entry; unreadable entries degrade to cache misses.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

import repro

from .store import STATUS_OK, RunRecord


class ResultCache:
    """Content-addressed cache of successful job records."""

    def __init__(
        self,
        root: Union[str, Path],
        version: Optional[str] = None,
    ):
        self.root = Path(root)
        self.version = version or repro.__version__
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.corrupt = 0

    def path_for(self, key: str) -> Path:
        return self.root / self.version / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunRecord]:
        """Return the cached record for ``key``, or ``None`` on a miss."""
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            record = RunRecord.from_dict(payload)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.corrupt += 1
            self.misses += 1
            return None
        if record.key != key or record.status != STATUS_OK:
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return record

    def put(self, record: RunRecord) -> bool:
        """Store a successful record; failed records are never cached."""
        if record.status != STATUS_OK:
            return False
        path = self.path_for(record.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = record.to_dict()
        payload["telemetry"] = {}
        # One C-encoder call and one write; ``json.dump`` would run the
        # pure-Python encoder and write it chunk by chunk.
        text = json.dumps(payload, sort_keys=True)
        descriptor, temp_path = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temp_path, path)
        except OSError:
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            return False
        self.writes += 1
        return True

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "corrupt": self.corrupt,
            "hit_rate": round(self.hit_rate, 4),
            "version": self.version,
        }
