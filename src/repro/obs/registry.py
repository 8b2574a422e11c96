"""Lightweight metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` is shared by whoever wants to emit telemetry —
the simulation engine (when observability is enabled), instrumented
algorithms (via ``ctx.count``), and the orchestrator pool.  It replaces the
ad-hoc telemetry dictionaries that used to be assembled by hand at each
call site.

Design constraints:

* **Zero-cost when disabled.**  :data:`NULL_REGISTRY` returns shared no-op
  instruments, so instrumented code can call ``registry.counter(...).inc()``
  unconditionally without branching.
* **Deterministic dumps.**  :meth:`MetricsRegistry.dump` renders a flat,
  sorted ``{"name{label=value}": number}`` dictionary — stable across runs
  of the same workload, convenient for JSON output and assertions.
* **Bounded label cardinality is the caller's job.**  Labels are intended
  for small enums (status, algorithm), never per-node or per-round values.
* **Thread-safe.**  A registry and its instruments share one lock: every
  update is atomic, and a dump or an ``items()`` call is a consistent
  snapshot even while other threads write (the service daemon's handler
  and drainer threads share one registry).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, List, Optional, Tuple

LabelSet = Tuple[Tuple[str, Any], ...]


def _labelset(labels: Dict[str, Any]) -> LabelSet:
    return tuple(sorted(labels.items()))


def _render_key(name: str, labels: LabelSet) -> str:
    if not labels:
        return name
    rendered = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing count, optionally split by labels.

    Instruments are made by :class:`MetricsRegistry`, which hands each
    one its lock."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._values: Dict[LabelSet, float] = {}
        self._lock = lock

    def inc(self, value: float = 1, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = _labelset(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0) + value

    def value(self, **labels: Any) -> float:
        return self._values.get(_labelset(labels), 0)

    def total(self) -> float:
        """Sum across every label combination."""
        with self._lock:
            return sum(self._values.values())

    def items(self) -> Iterable[Tuple[LabelSet, float]]:
        with self._lock:
            return list(self._values.items())


class Gauge:
    """A point-in-time value (last write wins), optionally labelled."""

    __slots__ = ("name", "_values", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._values: Dict[LabelSet, float] = {}
        self._lock = lock

    def set(self, value: float, **labels: Any) -> None:
        key = _labelset(labels)
        with self._lock:
            self._values[key] = value

    def value(self, **labels: Any) -> Optional[float]:
        return self._values.get(_labelset(labels))

    def items(self) -> Iterable[Tuple[LabelSet, float]]:
        with self._lock:
            return list(self._values.items())


#: Default histogram bucket upper bounds (seconds-flavoured, like the
#: Prometheus client defaults).  Cumulative counts per bound are kept in
#: addition to the streaming summary so the Prometheus text renderer
#: (:mod:`repro.telemetry.promtext`) can emit real ``_bucket`` series;
#: :meth:`Histogram.summary` and :meth:`MetricsRegistry.dump` output are
#: unchanged, so existing pinned dumps stay byte-identical.
DEFAULT_BUCKET_BOUNDS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class _HistogramBucket:
    __slots__ = ("count", "sum", "min", "max", "bounds", "bucket_counts")

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKET_BOUNDS):
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        # Cumulative ``le`` semantics: charge every bound >= value, so
        # bucket_counts[i] is directly the Prometheus cumulative count.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1

    def buckets(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ``+Inf`` excluded."""
        return list(zip(self.bounds, self.bucket_counts))

    def copy(self) -> "_HistogramBucket":
        clone = _HistogramBucket(self.bounds)
        clone.count, clone.sum = self.count, self.sum
        clone.min, clone.max = self.min, self.max
        clone.bucket_counts = list(self.bucket_counts)
        return clone

    def summary(self) -> Dict[str, float]:
        mean = self.sum / self.count if self.count else 0.0
        return {
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": round(mean, 6),
        }


class Histogram:
    """Streaming distribution summary (count/sum/min/max/mean) per labelset."""

    __slots__ = ("name", "_buckets", "_lock")

    def __init__(self, name: str, lock: threading.Lock):
        self.name = name
        self._buckets: Dict[LabelSet, _HistogramBucket] = {}
        self._lock = lock

    def observe(self, value: float, **labels: Any) -> None:
        key = _labelset(labels)
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = _HistogramBucket()
                self._buckets[key] = bucket
            bucket.observe(float(value))

    def summary(self, **labels: Any) -> Dict[str, float]:
        with self._lock:
            bucket = self._buckets.get(_labelset(labels))
            return bucket.summary() if bucket else _HistogramBucket().summary()

    def buckets(self, **labels: Any) -> List[Tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs for one labelset (may be empty)."""
        with self._lock:
            bucket = self._buckets.get(_labelset(labels))
            return bucket.buckets() if bucket else []

    def items(self) -> Iterable[Tuple[LabelSet, _HistogramBucket]]:
        """``(labels, bucket)`` pairs; each bucket is a copy."""
        with self._lock:
            return [(labels, bucket.copy()) for labels, bucket in self._buckets.items()]


class MetricsRegistry:
    """Named home for instruments; instruments are created on first use."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return True

    def _create(self, kind: Dict[str, Any], factory: Any, name: str) -> Any:
        with self._lock:
            return kind.setdefault(name, factory(name, self._lock))

    def counter(self, name: str) -> Counter:
        return self._counters.get(name) or self._create(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        return self._gauges.get(name) or self._create(self._gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._histograms.get(name) or self._create(
            self._histograms, Histogram, name
        )

    def counters(self) -> Dict[str, Counter]:
        """Name → counter snapshot (a shallow copy, safe to iterate)."""
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        """Name → gauge snapshot (a shallow copy, safe to iterate)."""
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        """Name → histogram snapshot (a shallow copy, safe to iterate)."""
        with self._lock:
            return dict(self._histograms)

    def dump(self) -> Dict[str, Any]:
        """Flat, sorted ``{"name{labels}": value}`` snapshot of everything."""
        flat: Dict[str, Any] = {}
        with self._lock:
            for name, counter in self._counters.items():
                for labels, value in counter._values.items():
                    flat[_render_key(name, labels)] = value
            for name, gauge in self._gauges.items():
                for labels, value in gauge._values.items():
                    flat[_render_key(name, labels)] = value
            for name, histogram in self._histograms.items():
                for labels, bucket in histogram._buckets.items():
                    base = _render_key(name, labels)
                    for stat, value in bucket.summary().items():
                        flat[f"{base}.{stat}"] = value
        return {key: flat[key] for key in sorted(flat)}


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    def inc(self, value: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def total(self) -> float:
        return 0

    def summary(self, **labels: Any) -> Dict[str, float]:
        return {}

    def items(self):
        return ()


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing; safe to share globally."""

    def __init__(self) -> None:  # no instrument maps at all
        pass

    @property
    def enabled(self) -> bool:
        return False

    def counter(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def histogram(self, name: str) -> Any:
        return _NULL_INSTRUMENT

    def counters(self) -> Dict[str, Counter]:
        return {}

    def gauges(self) -> Dict[str, Gauge]:
        return {}

    def histograms(self) -> Dict[str, Histogram]:
        return {}

    def dump(self) -> Dict[str, Any]:
        return {}


#: Shared no-op registry: instrument unconditionally, pay nothing.
NULL_REGISTRY = NullRegistry()
