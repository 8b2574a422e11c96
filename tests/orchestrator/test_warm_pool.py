"""Warm workers: pooled ``run_jobs`` calls reuse their worker processes.

Records carry the executing process in ``telemetry["pid"]``, and
``multiprocessing.active_children()`` lists the live workers, so which
pool served a call is read from both.  Every test here starts and ends
with :func:`shutdown_workers`, so no pool outlives a monkeypatch.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.orchestrator import (
    GRAPH_FAMILIES,
    STATUS_FAILED,
    STATUS_OK,
    expand_grid,
    pool,
    run_jobs,
    shutdown_workers,
)
from repro.problems import PROBLEM_REGISTRY, ProblemBundle, register_problem
from repro.problems.mst import ALGORITHMS, RANDOMIZED_OPTIONS
from repro.telemetry import current_trace_id

SRC = Path(__file__).resolve().parents[2] / "src"

GRID = dict(
    algorithms=["randomized"], families=["ring", "gnp"], sizes=[8, 12],
    seeds=[0, 1],
)


@pytest.fixture(autouse=True)
def fresh_workers():
    shutdown_workers()
    yield
    shutdown_workers()


def pids(report):
    return {record.telemetry["pid"] for record in report.records}


def live_workers():
    return {child.pid for child in multiprocessing.active_children()}


def fingerprints(report):
    return [record.fingerprint() for record in report.records]


class TestReuse:
    def test_consecutive_calls_run_on_the_same_workers(self):
        specs = expand_grid(**GRID)
        first = run_jobs(specs, workers=2)
        workers = live_workers()
        assert len(workers) == 2 and pids(first) <= workers
        second = run_jobs(specs, workers=2)
        assert live_workers() == workers and pids(second) <= workers
        assert first.failed == second.failed == 0
        assert fingerprints(first) == fingerprints(second) == fingerprints(
            run_jobs(specs, workers=1)
        )

    def test_concurrent_callers_get_disjoint_workers(self):
        specs = expand_grid(**GRID)

        def concurrently():
            # Each caller checks out its pool before its first dispatch;
            # the barrier holds both there, so both pools are out at once.
            barrier = threading.Barrier(2, timeout=30)
            reports = {}

            def call(name):
                def on_event(event, payload, waited=[]):
                    if event == "cell_dispatched" and not waited:
                        waited.append(True)
                        barrier.wait()

                reports[name] = run_jobs(specs, workers=2, on_event=on_event)

            threads = [
                threading.Thread(target=call, args=(name,)) for name in "ab"
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
            assert reports["a"].failed == reports["b"].failed == 0
            assert not pids(reports["a"]) & pids(reports["b"])

        concurrently()
        workers = live_workers()
        assert len(workers) == 4
        # Both pools went back idle, and the next pair takes them again.
        concurrently()
        assert live_workers() == workers

    def test_overlapping_calls_never_share_a_pool(self):
        """More callers than cores, switching threads often: any two calls
        that held a pool at the same time ran on disjoint workers."""
        specs = expand_grid(["randomized"], ["ring"], [8], [0, 1, 2, 3])
        spans = []
        lock = threading.Lock()

        def caller():
            for _ in range(3):
                dispatched = []

                def on_event(event, payload):
                    if event == "cell_dispatched" and not dispatched:
                        dispatched.append(time.monotonic())

                report = run_jobs(specs, workers=2, on_event=on_event)
                with lock:
                    spans.append(
                        (dispatched[0], time.monotonic(), pids(report), report.failed)
                    )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(spans) == 12 and {failed for *_, failed in spans} == {0}
        for index, (start, end, used, _) in enumerate(spans):
            for other_start, other_end, other_used, _ in spans[index + 1:]:
                if start < other_end and other_start < end:
                    assert not used & other_used
        assert len(live_workers()) <= 8

    def test_width_is_part_of_the_pool(self):
        specs = expand_grid(**GRID)
        run_jobs(specs, workers=2)
        two = live_workers()
        three = run_jobs(specs, workers=3)
        assert not pids(three) & two
        assert len(live_workers()) == 5
        assert pids(run_jobs(specs, workers=2)) <= two

    def test_shutdown_workers_ends_idle_workers(self, survivors):
        run_jobs(expand_grid(**GRID), workers=2)
        workers = live_workers()
        shutdown_workers()
        assert live_workers() == set()
        assert not survivors(workers)
        again = run_jobs(expand_grid(**GRID), workers=2)
        assert again.failed == 0
        assert not pids(again) & workers


class TestReplacement:
    def test_problem_registered_after_first_call_runs_on_a_pool(self):
        run_jobs(expand_grid(**GRID), workers=2)
        forked_before = live_workers()
        register_problem(
            ProblemBundle(
                name="warm-test",
                title="MST under another name",
                description="registered after the pool forked",
                algorithms={"Warm-MST": ALGORITHMS["Randomized-MST"]},
                aliases={},
                default_algorithm="Warm-MST",
                check_label="correct MST",
                awake_bound="O(log n)",
                options={"Warm-MST": RANDOMIZED_OPTIONS},
            )
        )
        try:
            specs = expand_grid(
                ["Warm-MST"], ["ring"], [8], [0, 1], problem="warm-test"
            )
            report = run_jobs(specs, workers=2)
        finally:
            del PROBLEM_REGISTRY["warm-test"]
        assert [record.status for record in report.records] == [STATUS_OK] * 2
        # The old pool was replaced, not kept beside the new one.
        assert not live_workers() & forked_before
        assert len(live_workers()) == 2

    def test_family_registered_after_first_call_runs_on_a_pool(
        self, monkeypatch
    ):
        run_jobs(expand_grid(**GRID), workers=2)
        monkeypatch.setitem(GRAPH_FAMILIES, "ring-again", GRAPH_FAMILIES["ring"])
        report = run_jobs(
            expand_grid(["randomized"], ["ring-again"], [8], [0, 1]), workers=2
        )
        assert report.failed == 0

    def test_dead_worker_fails_its_batch_and_the_next_call_starts_fresh(
        self, monkeypatch
    ):
        specs = expand_grid(**GRID)
        serial = run_jobs(specs, workers=1)
        # The next pool forks with this patch: its first task kills it.
        monkeypatch.setattr(pool, "execute_job", lambda spec: os._exit(3))
        events = []
        crashed = run_jobs(
            specs, workers=2, on_event=lambda name, payload: events.append(name)
        )
        assert crashed.failed == len(specs)
        for record in crashed.records:
            assert record.status == STATUS_FAILED
            assert record.error.startswith("worker crashed: BrokenProcessPool")
        assert events.count("cell_crashed") == len(specs)

        monkeypatch.undo()
        healed = run_jobs(specs, workers=2)
        assert healed.failed == 0
        assert fingerprints(healed) == fingerprints(serial)

    def test_worker_killed_while_idle_is_replaced(self, survivors):
        specs = expand_grid(**GRID)
        run_jobs(specs, workers=2)
        workers = live_workers()
        victim = min(workers)
        os.kill(victim, signal.SIGKILL)
        # The pool's manager thread reaps the dead worker once it has
        # marked the pool broken.
        assert not survivors({victim})
        report = run_jobs(specs, workers=2)
        assert report.failed == 0
        assert not pids(report) & workers


class TestTraceIds:
    def test_each_task_runs_under_its_batch_trace_id(self, monkeypatch):
        monkeypatch.setattr(
            pool, "execute_job", lambda spec: {"trace": current_trace_id()}
        )
        specs = expand_grid(**GRID)
        first = run_jobs(specs, workers=2, trace_id="aaaa0000aaaa0000")
        workers = live_workers()
        second = run_jobs(specs, workers=2, trace_id="bbbb0000bbbb0000")
        untraced = run_jobs(specs, workers=2)
        assert live_workers() == workers
        assert pids(second) | pids(untraced) <= workers
        assert {r.metrics["trace"] for r in first.records} == {"aaaa0000aaaa0000"}
        assert {r.metrics["trace"] for r in second.records} == {"bbbb0000bbbb0000"}
        assert {r.metrics["trace"] for r in untraced.records} == {None}


def test_array_batch_gets_workers_forked_with_numpy():
    """In a fresh interpreter (this one has numpy loaded already): the
    first task each worker runs reports whether numpy was there before
    the task started, i.e. whether the worker forked with it."""
    pytest.importorskip("numpy")
    code = """
import json, multiprocessing, sys
from repro.orchestrator import expand_grid, pool, run_jobs

execute = pool.execute_job
def probe(spec):
    forked_with_numpy = "numpy" in sys.modules
    return dict(execute(spec), numpy=forked_with_numpy)
pool.execute_job = probe

grid = dict(algorithms=["randomized"], families=["grid"], sizes=[16],
            seeds=[0, 1, 2, 3])
calls = []
for extra in ({}, {"engine": "array"}, {}):
    report = run_jobs(expand_grid(**grid, **extra), workers=2)
    live = sorted(child.pid for child in multiprocessing.active_children())
    calls.append([[[r.status, r.metrics["numpy"]] for r in report.records], live])
print(json.dumps(calls))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    coroutine, array, after = json.loads(completed.stdout.splitlines()[-1])
    for rows, _ in (coroutine, array, after):
        assert {status for status, _ in rows} == {"ok"}
    assert {numpy for _, numpy in coroutine[0]} == {False}
    assert {numpy for _, numpy in array[0]} == {True}
    # The array batch replaced the pool; a coroutine batch then runs on
    # the numpy-forked pool as it is.
    assert len(array[1]) == 2 and not set(array[1]) & set(coroutine[1])
    assert after[1] == array[1]
