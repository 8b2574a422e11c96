"""MetricsRegistry unit tests: instruments, labels, dumps, null registry."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.obs import NULL_REGISTRY, MetricsRegistry
from repro.telemetry import render_prometheus, validate_promtext


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("jobs")
        counter.inc()
        counter.inc(2)
        assert counter.value() == 3
        assert counter.total() == 3

    def test_labels_split_counts(self):
        counter = MetricsRegistry().counter("jobs")
        counter.inc(status="ok")
        counter.inc(status="ok")
        counter.inc(status="failed")
        assert counter.value(status="ok") == 2
        assert counter.value(status="failed") == 1
        assert counter.value(status="missing") == 0
        assert counter.total() == 3

    def test_label_order_is_irrelevant(self):
        counter = MetricsRegistry().counter("jobs")
        counter.inc(a=1, b=2)
        assert counter.value(b=2, a=1) == 1

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("jobs")
        with pytest.raises(ValueError):
            counter.inc(-1)


class TestGaugeAndHistogram:
    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("rounds")
        gauge.set(10)
        gauge.set(20)
        assert gauge.value() == 20
        assert gauge.value(other="label") is None

    def test_histogram_summary(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["mean"] == 2.0

    def test_empty_histogram_summary(self):
        histogram = MetricsRegistry().histogram("latency")
        assert histogram.summary()["count"] == 0


class TestRegistry:
    def test_instruments_are_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_dump_is_flat_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("jobs").inc(status="ok")
        registry.gauge("rounds").set(7)
        registry.histogram("t").observe(2.0)
        dump = registry.dump()
        assert dump["jobs{status=ok}"] == 1
        assert dump["rounds"] == 7
        assert dump["t.count"] == 1
        assert list(dump) == sorted(dump)

    def test_dump_is_deterministic_across_insertion_order(self):
        first = MetricsRegistry()
        first.counter("a").inc()
        first.counter("b").inc()
        second = MetricsRegistry()
        second.counter("b").inc()
        second.counter("a").inc()
        assert first.dump() == second.dump()


def contend(*targets):
    """Run each target on its own thread, all released at once, switching
    threads every microsecond."""
    barrier = threading.Barrier(len(targets))

    def released(target):
        barrier.wait()
        target()

    threads = [threading.Thread(target=released, args=(t,)) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


class TestThreads:
    """The service daemon's handler and drainer threads share a registry,
    and pollers dump a job's registry while ``run_jobs`` writes to it."""

    def test_no_increment_is_lost(self):
        hits = MetricsRegistry().counter("hits")

        def increment():
            for _ in range(50_000):
                hits.inc()

        contend(*[increment] * 4)
        assert hits.value() == 200_000

    def test_dumps_and_pages_are_snapshots(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("timed")
        histogram.observe(1.0)
        seen = []

        def write():
            for index in range(20_000):
                histogram.observe(1.0)
                if index % 50 == 0:
                    registry.counter("labelled").inc(index=index)

        def read():
            for _ in range(300):
                try:
                    dump = registry.dump()
                    # Every observation is 1.0: count and sum move together.
                    seen.append(dump["timed.sum"] == dump["timed.count"])
                    validate_promtext(render_prometheus(registry))
                except (RuntimeError, ValueError) as error:
                    seen.append(error)

        contend(write, read)
        assert seen == [True] * 300
        assert histogram.summary()["count"] == 20_001


class TestNullRegistry:
    def test_all_instruments_are_noops(self):
        NULL_REGISTRY.counter("x").inc(5, status="ok")
        NULL_REGISTRY.gauge("y").set(1)
        NULL_REGISTRY.histogram("z").observe(3.0)
        assert NULL_REGISTRY.dump() == {}
        assert NULL_REGISTRY.counter("x").value() == 0
        assert not NULL_REGISTRY.enabled
        assert MetricsRegistry().enabled
