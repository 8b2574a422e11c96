"""Persistent job queue: a worker pool that outlives one CLI invocation.

:class:`JobQueue` is the service half of simulation-as-a-service — a
FIFO of grid submissions drained by daemon worker threads, each running
a whole grid through :func:`repro.orchestrator.run_jobs` (so every job
inherits the pool's crash isolation, timeouts, retries, the
content-addressed :class:`~repro.orchestrator.ResultCache`, and a
resumable per-job JSONL :class:`~repro.orchestrator.RunStore`).

Dedupe happens at two levels:

* **In-flight coalescing** — a job is identified by
  :func:`repro.orchestrator.grid_key` over its expanded specs, so N
  concurrent submissions of the identical grid share one
  :class:`Job` (and therefore one simulation); later submissions of a
  finished grid are answered from the completed job without re-running.
* **Cell-level caching** — distinct grids that overlap share cells
  through the content-addressed cache, so only genuinely new cells
  execute.  Cache replays are byte-identical to live runs
  (:meth:`repro.orchestrator.RunRecord.fingerprint`).

The queue is deliberately transport-agnostic: nothing in this module
knows about HTTP.  The stdlib server in :mod:`repro.service.server` is
one front door; a future multi-machine shard router is another.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs import MetricsRegistry
from repro.orchestrator import (
    BatchReport,
    JobSpec,
    ProgressReporter,
    ResultCache,
    grid_from_payload,
    grid_key,
    run_jobs,
    shutdown_workers,
)
from repro.telemetry import (
    DEFAULT_MAX_EVENTS,
    FlightRecorder,
    current_trace_id,
    flight_path_for,
    load_flight_events,
    new_trace_id,
    trace_context,
)

logger = logging.getLogger("repro.service.queue")

#: Job lifecycle states.  ``done`` means the grid ran to completion —
#: individual cell failures live in the batch summary, not the job
#: status; ``failed`` is reserved for infrastructure errors (the batch
#: itself raised), and a failed job is re-enqueued on resubmission.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)

#: States in which ``GET /jobs/<hash>/result`` has something to return.
FINISHED_STATES = (JOB_DONE, JOB_FAILED)


def _registry_dump(registry: MetricsRegistry) -> Dict[str, Any]:
    """Dump a registry that another thread may be writing to.

    ``MetricsRegistry.dump`` iterates plain dicts; a concurrent insert
    from the drainer thread can raise ``RuntimeError``.  Polling is
    best-effort telemetry, so retry briefly and degrade to ``{}``.
    """
    for _ in range(3):
        try:
            return registry.dump()
        except RuntimeError:
            continue
    return {}


@dataclass
class Job:
    """One submitted grid: specs, lifecycle state, progress, outcome."""

    job_id: str
    specs: List[JobSpec]
    grid: Dict[str, Any]
    store_path: Path
    status: str = JOB_QUEUED
    #: Total submissions that resolved to this job (1 = never coalesced).
    submissions: int = 1
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[str] = None
    report: Optional[BatchReport] = None
    #: Trace ID minted for the submission that created this job; every
    #: flight event, access log line, and worker record shares it.
    trace_id: Optional[str] = None
    #: Bounded NDJSON lifecycle log next to the job's run store.
    recorder: Optional[FlightRecorder] = field(
        default=None, repr=False, compare=False
    )
    progress: ProgressReporter = field(init=False)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    done_event: threading.Event = field(default_factory=threading.Event)

    def __post_init__(self) -> None:
        self.progress = ProgressReporter(total=len(self.specs))

    def record_event(self, event: str, force: bool = False, **fields: Any) -> None:
        """Best-effort flight-recorder append (no-op without a recorder)."""
        if self.recorder is not None:
            self.recorder.record(event, force=force, **fields)

    @property
    def finished(self) -> bool:
        return self.status in FINISHED_STATES

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe job-state snapshot — the poll payload.

        Safe to call from any thread mid-run: progress goes through the
        reporter's thread-safe :meth:`ProgressReporter.snapshot` and the
        metrics dump degrades gracefully under concurrent writes.
        """
        payload: Dict[str, Any] = {
            "job": self.job_id,
            "status": self.status,
            "trace_id": self.trace_id,
            "cells": len(self.specs),
            "submissions": self.submissions,
            "submitted_at": round(self.submitted_at, 3),
            "started_at": (
                round(self.started_at, 3) if self.started_at else None
            ),
            "finished_at": (
                round(self.finished_at, 3) if self.finished_at else None
            ),
            "store": str(self.store_path),
            "progress": self.progress.snapshot(),
            "metrics": _registry_dump(self.registry),
            "error": self.error,
        }
        if self.report is not None:
            payload["summary"] = self.report.summary()
        return payload

    def result(self) -> Dict[str, Any]:
        """Full result payload: summary plus every run record."""
        payload: Dict[str, Any] = {
            "job": self.job_id,
            "status": self.status,
            "error": self.error,
        }
        if self.report is not None:
            payload["summary"] = self.report.summary()
            payload["records"] = [
                record.to_dict() for record in self.report.records
            ]
        else:
            payload["summary"] = None
            payload["records"] = []
        return payload


class JobQueue:
    """FIFO of grid jobs drained by persistent daemon worker threads.

    ``root`` holds everything the daemon persists: one JSONL run store
    per job under ``root/jobs/`` (each job resumes from its own store,
    so a daemon killed mid-append picks up exactly where it died) and,
    unless an explicit ``cache`` is passed, the shared result cache
    under ``root/cache``.

    ``workers`` is the number of drainer threads (concurrent jobs);
    ``job_workers`` is forwarded to :func:`run_jobs` as the per-job
    process-pool width.  With ``job_workers=1`` cells run serially on
    the drainer thread itself (note: ``SIGALRM`` timeouts need a main
    thread, so per-cell timeouts are only enforced for
    ``job_workers > 1``, where cells run on worker processes).  With
    ``job_workers > 1`` the worker processes persist across jobs: each
    drainer checks out an idle pool for its job and hands it back
    afterwards, and :meth:`shutdown` ends the idle ones.
    """

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 1,
        job_workers: int = 1,
        cache: Optional[ResultCache] = None,
        timeout: Optional[float] = None,
        retries: int = 0,
        registry: Optional[MetricsRegistry] = None,
        flight_max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.root = Path(root)
        self.workers = max(1, int(workers))
        self.job_workers = max(1, int(job_workers))
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.registry = registry if registry is not None else MetricsRegistry()
        self.flight_max_events = flight_max_events
        self._jobs: Dict[str, Job] = {}
        self._fifo: Deque[str] = deque()
        self._cond = threading.Condition()
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._started_at = time.monotonic()
        #: Torn store lines seen across every resumed job (healthz gauge).
        self._store_skipped_lines = 0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "JobQueue":
        """Spawn the drainer threads (idempotent); returns ``self``."""
        with self._cond:
            missing = self.workers - len(self._threads)
            for index in range(max(0, missing)):
                thread = threading.Thread(
                    target=self._drain,
                    name=f"repro-service-worker-{len(self._threads)}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        return self

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop accepting work, join the drainers and end idle workers.

        Queued-but-unstarted jobs stay in their stores' hands: nothing
        is lost, a restarted daemon re-running the same grid resumes
        from the per-job store and the shared cache.  Idle pool workers
        end through :func:`repro.orchestrator.shutdown_workers`, which
        acts on the whole process.
        """
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        deadline = time.monotonic() + timeout_s
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))
        shutdown_workers()

    # -- submission and inspection -------------------------------------

    def submit(
        self, grid: Mapping[str, Any], trace_id: Optional[str] = None
    ) -> Tuple[Job, bool]:
        """Enqueue a grid payload; returns ``(job, coalesced)``.

        Never blocks on execution.  Raises ``ValueError`` on a malformed
        grid (unknown keys, empty axes, bad fault/monitor specs).
        Identical grids — same expanded specs, hence same
        :func:`grid_key` — coalesce onto one job whatever their state:
        in-flight submissions share the running job, and resubmitting a
        finished grid returns the completed job without re-running.  A
        job that previously *failed* (infrastructure error, not cell
        failures) is re-enqueued instead.

        ``trace_id`` names the submission (default: the ambient context
        ID, else a freshly minted one).  The job keeps the ID of the
        submission that *created* it; coalesced submissions are recorded
        in the flight log with their own ``submission_trace_id``.
        """
        submission_trace = trace_id or current_trace_id() or new_trace_id()
        specs = grid_from_payload(grid)
        job_id = grid_key(specs)
        with self._cond:
            job = self._jobs.get(job_id)
            if job is not None:
                job.submissions += 1
                if job.status == JOB_FAILED:
                    # Infrastructure failures are retryable.
                    job.status = JOB_QUEUED
                    job.error = None
                    job.done_event = threading.Event()
                    job.progress = ProgressReporter(total=len(job.specs))
                    self._fifo.append(job_id)
                    self._cond.notify()
                    self.registry.counter("service.submissions").inc(
                        kind="retry"
                    )
                    job.record_event(
                        "requeued",
                        submission_trace_id=submission_trace,
                        submissions=job.submissions,
                    )
                else:
                    self.registry.counter("service.submissions").inc(
                        kind="coalesced"
                    )
                    job.record_event(
                        "coalesced",
                        submission_trace_id=submission_trace,
                        submissions=job.submissions,
                        status=job.status,
                    )
                self._set_depth_gauge()
                logger.info(
                    "submission coalesced onto job %s (%d submissions)",
                    job_id[:12],
                    job.submissions,
                    extra={
                        "job": job_id,
                        "trace_id": submission_trace,
                        "coalesced": True,
                    },
                )
                return job, True
            job = Job(
                job_id=job_id,
                specs=specs,
                grid={key: value for key, value in grid.items()},
                store_path=self.root / "jobs" / f"{job_id}.jsonl",
                trace_id=submission_trace,
            )
            job.recorder = FlightRecorder(
                flight_path_for(job.store_path),
                trace_id=submission_trace,
                max_events=self.flight_max_events,
            )
            job.record_event("submitted", job=job_id, cells=len(job.specs))
            self._jobs[job_id] = job
            self._fifo.append(job_id)
            self._cond.notify()
            self.registry.counter("service.submissions").inc(kind="new")
            self._set_depth_gauge()
            logger.info(
                "job %s submitted (%d cells)",
                job_id[:12],
                len(job.specs),
                extra={
                    "job": job_id,
                    "trace_id": submission_trace,
                    "cells": len(job.specs),
                    "coalesced": False,
                },
            )
            return job, False

    def get(self, job_id: str) -> Optional[Job]:
        with self._cond:
            return self._jobs.get(job_id)

    def status(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Poll payload for one job, or ``None`` for an unknown hash."""
        job = self.get(job_id)
        return job.snapshot() if job is not None else None

    def result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Result payload once finished; ``None`` if unknown or running."""
        job = self.get(job_id)
        if job is None or not job.finished:
            return None
        return job.result()

    def events(self, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's flight-recorder payload, or ``None`` for unknown jobs.

        Served at ``GET /jobs/<hash>/events``: the recorded lifecycle
        chain (submitted → … → finalized), the job's trace ID, and how
        many events the bound dropped.
        """
        job = self.get(job_id)
        if job is None:
            return None
        path = (
            job.recorder.path
            if job.recorder is not None
            else flight_path_for(job.store_path)
        )
        return {
            "job": job.job_id,
            "trace_id": job.trace_id,
            "status": job.status,
            "events": load_flight_events(path),
            "dropped": job.recorder.dropped if job.recorder else 0,
            "path": str(path),
        }

    def wait(self, job_id: str, timeout_s: Optional[float] = None) -> bool:
        """Block until the job finishes; ``True`` iff it did in time."""
        job = self.get(job_id)
        if job is None:
            raise KeyError(f"unknown job {job_id!r}")
        return job.done_event.wait(timeout_s)

    def stats(self) -> Dict[str, Any]:
        """Service-level stats: queue depth, liveness, dedupe, cache."""
        with self._cond:
            jobs = list(self._jobs.values())
            depth = len(self._fifo)
        by_status = {state: 0 for state in JOB_STATES}
        for job in jobs:
            by_status[job.status] += 1
        submissions = sum(job.submissions for job in jobs)
        per_job = {
            job.job_id: {
                "status": job.status,
                "submissions": job.submissions,
                "cells": len(job.specs),
                "progress": job.progress.snapshot(),
            }
            for job in jobs
        }
        payload: Dict[str, Any] = {
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "queue_depth": depth,
            "workers": {
                "configured": self.workers,
                "alive": sum(
                    1 for thread in self._threads if thread.is_alive()
                ),
            },
            "job_workers": self.job_workers,
            "jobs": {"total": len(jobs), **by_status},
            "submissions": {
                "total": submissions,
                "coalesced": submissions - len(jobs),
            },
            "cache": self.cache.stats() if self.cache is not None else None,
            "per_job": per_job,
            "store_skipped_lines": self._store_skipped_lines,
            "metrics": _registry_dump(self.registry),
        }
        return payload

    def healthz(self) -> Dict[str, Any]:
        """Small liveness payload: is the pool actually able to work?

        ``store_skipped_lines`` counts torn JSONL lines skipped while
        resuming job stores — nonzero means some store was corrupted by
        a crashed writer, visible here without reading any logs.
        """
        alive = sum(1 for thread in self._threads if thread.is_alive())
        with self._cond:
            depth = len(self._fifo)
        return {
            "ok": alive > 0 and not self._stopping,
            "workers_alive": alive,
            "queue_depth": depth,
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "store_skipped_lines": self._store_skipped_lines,
        }

    # -- drainer -------------------------------------------------------

    def _set_depth_gauge(self) -> None:
        self.registry.gauge("service.queue_depth").set(len(self._fifo))

    def _next_job(self) -> Optional[Job]:
        with self._cond:
            while not self._fifo and not self._stopping:
                self._cond.wait(0.1)
            if not self._fifo:
                return None
            job = self._jobs[self._fifo.popleft()]
            job.status = JOB_RUNNING
            job.started_at = time.time()
            self._set_depth_gauge()
        queue_wait = max(0.0, job.started_at - job.submitted_at)
        self.registry.histogram("service.queue_wait_seconds").observe(
            queue_wait
        )
        job.record_event("dequeued", queue_wait_s=round(queue_wait, 4))
        return job

    def _heartbeat(self) -> None:
        """Stamp this drainer thread's liveness gauge (wall-clock time)."""
        self.registry.gauge("service.worker_heartbeat").set(
            round(time.time(), 3), worker=threading.current_thread().name
        )

    def _finalize(
        self,
        job: Job,
        status: str,
        finished_at: float,
        report: Optional[BatchReport],
    ) -> None:
        """Post-run bookkeeping: metrics, flight record, structured log.

        Runs before the job publishes its terminal ``status``, so a client
        that sees a finished job also sees its ``finalized`` event.
        """
        elapsed = (
            finished_at - job.started_at if job.started_at is not None else 0.0
        )
        self.registry.counter("service.jobs").inc(status=status)
        if job.started_at is not None:
            self.registry.histogram("service.job_seconds").observe(
                elapsed, status=status
            )
        final_fields: Dict[str, Any] = {
            "status": status,
            "elapsed_s": round(elapsed, 4),
        }
        if report is not None:
            for source, count in (
                ("executed", report.executed),
                ("cache", report.cached),
                ("resume", report.resumed),
            ):
                if count:
                    self.registry.counter("service.cells").inc(
                        count, source=source
                    )
            if report.failed:
                self.registry.counter("service.cells_failed").inc(
                    report.failed
                )
            if report.store_skipped_lines:
                self._store_skipped_lines += report.store_skipped_lines
            self.registry.gauge("service.store_skipped_lines").set(
                self._store_skipped_lines
            )
            final_fields.update(
                executed=report.executed,
                cached=report.cached,
                resumed=report.resumed,
                failed=report.failed,
            )
        if self.cache is not None:
            self.registry.gauge("service.cache_hit_rate").set(
                self.cache.stats()["hit_rate"]
            )
        if job.error is not None:
            final_fields["error"] = job.error
        if job.recorder is not None:
            final_fields["events_dropped"] = job.recorder.dropped
        job.record_event("finalized", force=True, **final_fields)
        logger.info(
            "job %s %s in %.2fs",
            job.job_id[:12],
            status,
            elapsed,
            extra={"job": job.job_id, **final_fields},
        )

    def _drain(self) -> None:
        self._heartbeat()
        while True:
            job = self._next_job()
            if job is None:
                return
            # The whole batch runs under the job's trace ID, so queue
            # logs, run_jobs stamping, and worker-process logs all
            # correlate with the submission that created the job.
            with trace_context(job.trace_id):
                try:
                    report = run_jobs(
                        job.specs,
                        workers=self.job_workers,
                        cache=self.cache,
                        store=job.store_path,
                        # Resuming from its own store is what lets a daemon
                        # that died mid-append finish its grid on restart.
                        resume=job.store_path,
                        timeout=self.timeout,
                        retries=self.retries,
                        progress=job.progress,
                        registry=job.registry,
                        trace_id=job.trace_id,
                        on_event=lambda event, payload: job.record_event(
                            event, **payload
                        ),
                    )
                except Exception as exc:  # infrastructure error, not a cell
                    job.error = f"{type(exc).__name__}: {exc}"
                    status = JOB_FAILED
                    report = None
                else:
                    job.report = report
                    status = JOB_DONE
                finished_at = time.time()
                self._finalize(job, status, finished_at, report)
            # Pollers read ``status`` without a lock: publish it only once
            # the flight log is complete and ``finished_at`` is set.
            job.finished_at = finished_at
            job.status = status
            self._heartbeat()
            job.done_event.set()
