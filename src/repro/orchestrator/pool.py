"""Worker-pool execution of job grids with crash isolation and retries.

:func:`run_jobs` is the orchestrator's engine room: it takes a list of
:class:`~repro.orchestrator.jobs.JobSpec`, consults the resume store and
the result cache, executes whatever remains (serially or across a
``multiprocessing`` pool), and returns a :class:`BatchReport` whose
records are in submission order.

Failure policy: a job whose protocol raises is retried up to ``retries``
times and then becomes a structured ``failed`` record — it never aborts
the batch.  Per-job timeouts use ``SIGALRM`` (each worker process runs
jobs on its own main thread); on platforms without ``SIGALRM`` the
timeout degrades to unenforced rather than erroring.

Warm workers: a pooled call checks out an idle pool of its width from
this module, starting one only when none is idle, and hands it back when
its batch ends, so later calls in the process run on the same worker
processes.  A checked-out pool serves one caller at a time.  Each task
carries its batch's trace ID.  A pool is replaced rather than reused
when a worker died, when an array batch meets workers forked before the
array engine was loaded, or when the registered problems, algorithms or
graph families differ from the ones its workers forked with.  Idle
workers end at interpreter exit or through :func:`shutdown_workers`.

``concurrent.futures`` (and with it ``multiprocessing``) is imported
only when a call starts a pool, so serial runs (``workers=1``, the
service's default ``job_workers=1``) never load it.  A pool that will
run ``engine="array"`` cells imports the array engine before it forks
(:func:`_load_array_engine`), so its workers inherit numpy instead of
each importing it.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs import MetricsRegistry, NULL_REGISTRY
from repro.sim.capabilities import require
from repro.sim.errors import UnsupportedFeatureError
from repro.problems import PROBLEM_REGISTRY
from repro.telemetry.logs import current_trace_id, reset_trace_id, set_trace_id

from .cache import ResultCache
from .jobs import JobSpec, execute_job
from .progress import ProgressReporter
from .registry import GRAPH_FAMILIES
from .store import STATUS_OK, RunRecord, RunStore


class JobTimeout(Exception):
    """Raised inside a worker when a job exceeds its time budget."""


@contextmanager
def _job_timeout(seconds: Optional[float]):
    """Enforce a wall-clock budget via ``SIGALRM`` where available.

    The alarm raises :class:`JobTimeout` wherever the job happens to be.
    When that is a ``gc.callbacks`` entry or a ``__del__`` method, CPython
    prints the exception and drops it, so an expiry is also remembered
    and raised once the job returns.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return
    message = f"job exceeded {seconds}s budget"
    expired = False

    def _on_alarm(signum, frame):
        nonlocal expired
        expired = True
        raise JobTimeout(message)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, float(seconds))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    if expired:
        raise JobTimeout(message)


def execute_with_policy(
    spec: JobSpec,
    timeout: Optional[float] = None,
    retries: int = 0,
) -> RunRecord:
    """Execute one job under the failure policy; never raises."""
    attempts = 0
    last_error = "unknown error"
    started = time.perf_counter()
    for _ in range(max(0, retries) + 1):
        attempts += 1
        try:
            with _job_timeout(timeout):
                metrics = execute_job(spec)
        except Exception as exc:  # crash isolation: failures become records
            last_error = f"{type(exc).__name__}: {exc}"
            continue
        return RunRecord.ok(
            spec,
            metrics,
            telemetry={
                "source": "executed",
                "elapsed_s": round(time.perf_counter() - started, 4),
                "attempts": attempts,
                "pid": os.getpid(),
            },
        )
    return RunRecord.failed(
        spec,
        last_error,
        telemetry={
            "source": "executed",
            "elapsed_s": round(time.perf_counter() - started, 4),
            "attempts": attempts,
            "pid": os.getpid(),
        },
    )


def _pool_worker(
    payload: Tuple[Dict[str, Any], Optional[float], int, Optional[str]]
) -> Dict[str, Any]:
    """Module-level (picklable) worker entry point.

    The task runs under its batch's trace ID, so every log line a worker
    emits for it correlates back to the submission that caused it.
    """
    spec_dict, timeout, retries, trace_id = payload
    token = set_trace_id(trace_id)
    try:
        spec = JobSpec.from_dict(spec_dict)
        return execute_with_policy(spec, timeout=timeout, retries=retries).to_dict()
    finally:
        reset_trace_id(token)


def _load_array_engine(specs: Sequence[JobSpec]) -> bool:
    """Import numpy and the array kernels if any of ``specs`` needs them.

    Called before a pool is checked out.  Under the ``fork`` start method
    (the Linux default before Python 3.14) workers inherit the parent's
    modules, so the import is paid once here rather than once per worker
    on its first array cell.  Returns whether the batch needs workers
    forked with the array engine loaded.  Without numpy this returns
    ``False``, and each array cell fails in its worker with the usual
    error.
    """
    if not any(dict(spec.options).get("engine") == "array" for spec in specs):
        return False
    try:
        require("array")
    except UnsupportedFeatureError:
        return False
    import repro.core.array_ops  # noqa: F401

    return True


def _registry_snapshot() -> Tuple[Any, ...]:
    """The names a forked worker resolves specs against: every problem
    bundle with its algorithm, diagnostic and alias tables, and the graph
    families.  Functions compare by identity."""
    return (
        tuple(
            (
                bundle,
                tuple(bundle.algorithms.items()),
                tuple(bundle.diagnostic_algorithms.items()),
                tuple(bundle.aliases.items()),
            )
            for bundle in PROBLEM_REGISTRY.values()
        ),
        tuple(GRAPH_FAMILIES.items()),
    )


@dataclass
class _Workers:
    """One process pool and what its workers inherited when they forked."""

    executor: Any
    width: int
    registries: Tuple[Any, ...]
    array_engine: bool


#: Idle pools, most recently returned last.  A pool is in here only
#: between batches.
_idle: List[_Workers] = []
_idle_lock = threading.Lock()


def _checkout(width: int, needs_array: bool) -> _Workers:
    """Take the idle pool of ``width`` workers returned last that can run
    this batch, or start one; idle pools of that width that can never
    serve it are shut down."""
    registries = _registry_snapshot()
    chosen: Optional[_Workers] = None
    stale: List[_Workers] = []
    with _idle_lock:
        for workers in [entry for entry in _idle[::-1] if entry.width == width]:
            # The executor's manager thread sets ``_broken`` when a worker
            # dies, also while the pool sits idle.
            if (
                getattr(workers.executor, "_broken", False)
                or workers.registries != registries
                or (needs_array and not workers.array_engine)
            ):
                _idle.remove(workers)
                stale.append(workers)
            elif chosen is None:
                _idle.remove(workers)
                chosen = workers
    for workers in stale:
        workers.executor.shutdown(wait=True)
    if chosen is not None:
        return chosen
    from concurrent.futures import ProcessPoolExecutor

    return _Workers(
        executor=ProcessPoolExecutor(max_workers=width),
        width=width,
        registries=registries,
        array_engine="repro.core.array_ops" in sys.modules,
    )


def _checkin(workers: _Workers, reusable: bool) -> None:
    """Hand a pool back after its batch, or shut it down."""
    if reusable:
        with _idle_lock:
            _idle.append(workers)
    else:
        workers.executor.shutdown(wait=True, cancel_futures=True)


def shutdown_workers() -> None:
    """End every idle worker process and wait for them to exit.

    Pools checked out by a running batch are not touched; they become
    idle when their batch ends.  The next pooled :func:`run_jobs` call
    starts fresh workers.  Idle workers also end when the interpreter
    exits, so calling this is needed only to release them earlier.
    """
    with _idle_lock:
        idle = list(_idle)
        _idle.clear()
    for workers in idle:
        workers.executor.shutdown(wait=True)


@dataclass
class BatchReport:
    """Outcome of one :func:`run_jobs` call."""

    #: One record per submitted spec, in submission order.
    records: List[RunRecord] = field(default_factory=list)
    #: Jobs actually executed this call (cache/resume misses).
    executed: int = 0
    #: Jobs served from the result cache.
    cached: int = 0
    #: Jobs skipped because the resume store already has an ``ok`` record.
    resumed: int = 0
    #: Records with ``status == "failed"`` (after retries).
    failed: int = 0
    elapsed_s: float = 0.0
    cache_stats: Optional[Dict[str, Any]] = None
    progress: Optional[Dict[str, Any]] = None
    #: Flat :meth:`repro.obs.MetricsRegistry.dump` snapshot (when a registry
    #: was passed to :func:`run_jobs`).
    metrics: Optional[Dict[str, Any]] = None
    #: Torn/malformed lines the resume store skipped while loading — a
    #: nonzero value means a prior writer died mid-append (surfaced in
    #: ``/healthz`` by the service daemon).
    store_skipped_lines: int = 0

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def ok(self) -> int:
        return self.total - self.failed

    def failures(self) -> List[RunRecord]:
        return [record for record in self.records if record.status != STATUS_OK]

    def summary(self) -> Dict[str, Any]:
        payload = {
            "total": self.total,
            "ok": self.ok,
            "failed": self.failed,
            "executed": self.executed,
            "cached": self.cached,
            "resumed": self.resumed,
            "elapsed_s": round(self.elapsed_s, 3),
        }
        if self.cache_stats is not None:
            payload["cache"] = self.cache_stats
            payload["cache_hit_rate"] = self.cache_stats.get("hit_rate", 0.0)
        if self.progress is not None:
            payload["progress"] = self.progress
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        if self.store_skipped_lines:
            payload["store_skipped_lines"] = self.store_skipped_lines
        return payload


def run_jobs(
    specs: Sequence[JobSpec],
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    store: Optional[Union[RunStore, str, Path]] = None,
    resume: Optional[Union[RunStore, str, Path]] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    progress: Optional[ProgressReporter] = None,
    registry: Optional[MetricsRegistry] = None,
    trace_id: Optional[str] = None,
    on_event: Optional[Callable[[str, Dict[str, Any]], None]] = None,
) -> BatchReport:
    """Run a grid of jobs; returns records in submission order.

    ``resume`` names a prior store: every spec whose latest record there
    is ``ok`` is skipped and its stored record reused.  ``cache`` serves
    previously computed cells across stores and sessions.  New records
    are appended to ``store`` as they finish, so an interrupted batch is
    resumable from exactly where it died.

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) collects batch
    telemetry — ``orchestrator.jobs`` counters labelled by status and
    source, and an ``orchestrator.job_seconds`` histogram over executed
    jobs — and its flat dump lands in :attr:`BatchReport.metrics`.

    ``trace_id`` (default: the ambient :func:`current_trace_id`) is
    stamped on every record's volatile ``telemetry`` block and carried by
    every task sent to a worker process, correlating this batch's work
    with the submission that caused it.  ``on_event`` receives lifecycle
    events (``cell_dispatched`` / ``cell_finished`` / ``cell_retried`` /
    ``cell_crashed`` with a payload dict) — the service layer's flight
    recorder rides on it.  Neither affects the deterministic record
    content (``RunRecord.fingerprint``).
    """
    started = time.monotonic()
    active_trace = trace_id if trace_id is not None else current_trace_id()

    def _emit(event: str, payload: Dict[str, Any]) -> None:
        if on_event is not None:
            on_event(event, payload)
    run_store = store if isinstance(store, RunStore) else (
        RunStore(store) if store is not None else None
    )
    resume_store = resume if isinstance(resume, RunStore) else (
        RunStore(resume) if resume is not None else None
    )
    same_ledger = (
        run_store is not None
        and resume_store is not None
        and run_store.path.resolve() == resume_store.path.resolve()
    )
    if progress is None:
        progress = ProgressReporter(total=len(specs))
    metrics = registry if registry is not None else NULL_REGISTRY
    report = BatchReport()

    results: List[Optional[RunRecord]] = [None] * len(specs)
    pending: List[Tuple[int, JobSpec]] = []

    completed = resume_store.latest_by_key() if resume_store is not None else {}
    if resume_store is not None:
        report.store_skipped_lines = resume_store.skipped_lines
        if resume_store.skipped_lines:
            metrics.gauge("orchestrator.store_skipped_lines").set(
                resume_store.skipped_lines
            )

    def _finish(index: int, record: RunRecord, persist: bool) -> None:
        results[index] = record
        if active_trace is not None:
            record.telemetry["trace_id"] = active_trace
        if record.status != STATUS_OK:
            report.failed += 1
        if persist and run_store is not None:
            run_store.append(record)
        source = record.telemetry.get("source", "unknown")
        metrics.counter("orchestrator.jobs").inc(
            status=record.status, source=source
        )
        if source == "executed":
            elapsed = record.telemetry.get("elapsed_s")
            if isinstance(elapsed, (int, float)):
                metrics.histogram("orchestrator.job_seconds").observe(
                    float(elapsed), status=record.status
                )
        event_payload = {
            "key": record.key,
            "status": record.status,
            "source": source,
        }
        elapsed = record.telemetry.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            event_payload["elapsed_s"] = float(elapsed)
        _emit("cell_finished", event_payload)
        attempts = record.telemetry.get("attempts")
        if isinstance(attempts, int) and attempts > 1:
            _emit(
                "cell_retried", {"key": record.key, "attempts": attempts}
            )
        if record.status != STATUS_OK and record.error:
            if record.error.startswith("worker crashed"):
                _emit(
                    "cell_crashed",
                    {"key": record.key, "error": record.error},
                )
        progress.update(record)

    for index, spec in enumerate(specs):
        prior = completed.get(spec.key)
        if prior is not None and prior.status == STATUS_OK:
            record = RunRecord.from_dict(prior.to_dict())
            record.telemetry = {"source": "resume"}
            report.resumed += 1
            # Already present when resuming in place; re-append only when
            # writing a fresh ledger from an old one.
            _finish(index, record, persist=not same_ledger)
            continue
        if cache is not None:
            hit = cache.get(spec.key)
            if hit is not None:
                record = RunRecord.from_dict(hit.to_dict())
                record.telemetry = {"source": "cache"}
                report.cached += 1
                _finish(index, record, persist=True)
                continue
        pending.append((index, spec))

    def _absorb(index: int, spec: JobSpec, record: RunRecord) -> None:
        report.executed += 1
        if cache is not None and record.status == STATUS_OK:
            cache.put(record)
        _finish(index, record, persist=True)

    if pending and workers <= 1:
        for index, spec in pending:
            _emit("cell_dispatched", {"key": spec.key, "label": spec.label()})
            _absorb(index, spec, execute_with_policy(spec, timeout, retries))
    elif pending:
        from concurrent.futures import FIRST_COMPLETED, wait

        pool = _checkout(
            workers, _load_array_engine([spec for _, spec in pending])
        )
        reusable = False
        outstanding: set = set()
        try:
            futures = {}
            for index, spec in pending:
                _emit(
                    "cell_dispatched",
                    {"key": spec.key, "label": spec.label()},
                )
                futures[
                    pool.executor.submit(
                        _pool_worker,
                        (spec.to_dict(), timeout, retries, active_trace),
                    )
                ] = (index, spec)
            outstanding = set(futures)
            reusable = True
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    index, spec = futures[future]
                    try:
                        record = RunRecord.from_dict(future.result())
                    except Exception as exc:
                        # The worker process itself died (not the job):
                        # still a structured failure, never a suite abort.
                        reusable = False
                        record = RunRecord.failed(
                            spec,
                            f"worker crashed: {type(exc).__name__}: {exc}",
                            telemetry={"source": "executed"},
                        )
                    _absorb(index, spec, record)
        finally:
            # A batch cut short leaves work in flight: never reuse it.
            _checkin(pool, reusable and not outstanding)

    report.records = [record for record in results if record is not None]
    report.elapsed_s = time.monotonic() - started
    if cache is not None:
        report.cache_stats = cache.stats()
    report.progress = progress.summary()
    if registry is not None:
        registry.gauge("orchestrator.batch_elapsed_s").set(
            round(report.elapsed_s, 4)
        )
        report.metrics = registry.dump()
    return report
