"""JobQueue lifecycle, dedupe (coalescing + cache), and daemon resume."""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.orchestrator import ResultCache, RunStore
from repro.service import JOB_DONE, JOB_FAILED, JOB_QUEUED, JobQueue

RING_GRID = {
    "algorithms": ["randomized"],
    "families": ["ring"],
    "sizes": [8],
    "seeds": 2,
}


@pytest.fixture
def queue(tmp_path):
    instance = JobQueue(
        tmp_path / "service", cache=ResultCache(tmp_path / "cache")
    ).start()
    yield instance
    instance.shutdown()


def _run(queue, grid):
    job, coalesced = queue.submit(grid)
    assert queue.wait(job.job_id, timeout_s=120)
    return job, coalesced


class TestLifecycle:
    def test_submit_run_fetch(self, queue):
        job, coalesced = _run(queue, RING_GRID)
        assert not coalesced
        assert job.status == JOB_DONE
        snapshot = queue.status(job.job_id)
        assert snapshot["status"] == JOB_DONE
        assert snapshot["progress"]["done"] == snapshot["progress"]["total"] == 2
        assert snapshot["summary"]["failed"] == 0
        result = queue.result(job.job_id)
        assert len(result["records"]) == 2
        assert all(r["status"] == "ok" for r in result["records"])
        # The job journals to its own per-job store.
        assert len(RunStore(job.store_path).load()) == 2

    def test_pooled_jobs_share_workers_until_shutdown(self, tmp_path, survivors):
        queue = JobQueue(tmp_path / "service", job_workers=2).start()
        try:
            live = []
            for seeds in ([0, 1], [2, 3]):
                job, _ = _run(queue, dict(RING_GRID, seeds=seeds))
                assert job.status == JOB_DONE
                records = queue.result(job.job_id)["records"]
                live.append({child.pid for child in multiprocessing.active_children()})
                assert {r["telemetry"]["pid"] for r in records} <= live[-1]
            # The second job started no process.
            assert live[1] == live[0]
        finally:
            queue.shutdown()
        assert multiprocessing.active_children() == []
        assert not survivors(live[0])

    def test_submit_is_non_blocking(self, tmp_path):
        # Queue never started: submission must return immediately with a
        # queued job rather than executing inline.
        queue = JobQueue(tmp_path / "svc")
        job, coalesced = queue.submit(RING_GRID)
        assert not coalesced
        assert job.status == JOB_QUEUED
        snapshot = queue.status(job.job_id)
        assert snapshot["progress"]["done"] == 0
        assert queue.result(job.job_id) is None

    def test_unknown_job(self, queue):
        assert queue.status("deadbeef") is None
        assert queue.result("deadbeef") is None
        with pytest.raises(KeyError):
            queue.wait("deadbeef", timeout_s=0.1)

    def test_bad_grid_raises(self, queue):
        with pytest.raises(ValueError):
            queue.submit({"algorithms": ["randomized"], "bogus_axis": [1]})
        with pytest.raises(ValueError):
            queue.submit({"algorithms": [], "families": [], "sizes": []})

    def test_cell_failures_still_complete_the_job(self, queue):
        job, _ = _run(
            queue,
            {
                "algorithms": ["crashing"],
                "families": ["ring"],
                "sizes": [8],
                "seeds": 1,
            },
        )
        assert job.status == JOB_DONE  # job finished; the cell failed
        assert queue.result(job.job_id)["summary"]["failed"] == 1


class TestDedupe:
    def test_concurrent_identical_submissions_coalesce(self, queue):
        """Two threads, one grid: one execution, byte-identical records."""
        barrier = threading.Barrier(2)
        outcomes = []

        def submit():
            barrier.wait()
            outcomes.append(queue.submit(RING_GRID))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        (job_a, _), (job_b, _) = outcomes
        assert job_a is job_b  # literally one Job object
        assert job_a.submissions == 2
        assert sum(coalesced for _, coalesced in outcomes) == 1
        assert queue.wait(job_a.job_id, timeout_s=120)
        stats = queue.stats()
        assert stats["jobs"]["total"] == 1
        assert stats["submissions"] == {"total": 2, "coalesced": 1}
        # One execution: every record was executed exactly once.
        assert queue.result(job_a.job_id)["summary"]["executed"] == 2

    def test_sequential_resubmission_returns_completed_job(self, queue):
        job, _ = _run(queue, RING_GRID)
        executed = job.report.executed
        again, coalesced = queue.submit(RING_GRID)
        assert coalesced
        assert again is job
        assert again.status == JOB_DONE
        assert again.report.executed == executed  # nothing re-ran

    def test_overlapping_grids_share_cells_byte_identically(self, queue):
        """Distinct grids overlap through the cache, records byte-equal."""
        first, _ = _run(queue, RING_GRID)
        wider = dict(RING_GRID, sizes=[8, 12])
        second, coalesced = _run(queue, wider)
        assert not coalesced
        assert second.job_id != first.job_id
        summary = queue.result(second.job_id)["summary"]
        assert summary["cached"] == 2  # the n=8 cells replayed from cache
        assert summary["executed"] == 2  # only the n=12 cells ran
        assert summary["cache_hit_rate"] > 0
        by_key = {
            record.key: record.fingerprint()
            for record in second.report.records
        }
        for record in first.report.records:
            assert by_key[record.key] == record.fingerprint()


class TestFailureAndResume:
    def test_infrastructure_failure_marks_job_failed_and_retries(
        self, tmp_path, monkeypatch
    ):
        import repro.service.queue as queue_module

        queue = JobQueue(tmp_path / "svc").start()
        try:
            def boom(*args, **kwargs):
                raise RuntimeError("pool exploded")

            monkeypatch.setattr(queue_module, "run_jobs", boom)
            job, _ = queue.submit(RING_GRID)
            assert queue.wait(job.job_id, timeout_s=30)
            assert job.status == JOB_FAILED
            assert "pool exploded" in job.error
            assert queue.result(job.job_id)["records"] == []

            # Resubmitting a failed job re-enqueues it (infrastructure
            # errors are retryable); with run_jobs restored it completes.
            monkeypatch.undo()
            retried, coalesced = queue.submit(RING_GRID)
            assert coalesced and retried is job
            assert queue.wait(job.job_id, timeout_s=120)
            assert job.status == JOB_DONE
        finally:
            queue.shutdown()

    def test_restarted_daemon_resumes_own_store(self, tmp_path):
        """A new queue over the same root resumes per-job stores, even
        after a crashed writer left a torn trailing line."""
        root = tmp_path / "svc"
        cache = ResultCache(tmp_path / "cache")
        first = JobQueue(root, cache=cache).start()
        job, _ = _run(first, RING_GRID)
        first.shutdown()

        # Simulate the daemon dying mid-append.
        with open(job.store_path, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "key": "abc", "spe')

        second = JobQueue(root, cache=cache).start()
        try:
            rerun, coalesced = _run(second, RING_GRID)
            assert not coalesced  # fresh process: no in-memory job state
            assert rerun.job_id == job.job_id
            summary = second.result(rerun.job_id)["summary"]
            assert summary["executed"] == 0
            assert summary["resumed"] == 2  # served from its own store
        finally:
            second.shutdown()


class TestStatsAndHealth:
    def test_stats_shape(self, queue):
        job, _ = _run(queue, RING_GRID)
        stats = queue.stats()
        assert stats["workers"] == {"configured": 1, "alive": 1}
        assert stats["queue_depth"] == 0
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["hit_rate"] == 0.0
        assert stats["per_job"][job.job_id]["status"] == JOB_DONE
        assert stats["per_job"][job.job_id]["progress"]["done"] == 2
        assert stats["metrics"]["service.submissions{kind=new}"] == 1
        assert stats["metrics"]["service.jobs{status=done}"] == 1

    def test_healthz_reflects_worker_liveness(self, tmp_path):
        queue = JobQueue(tmp_path / "svc")
        assert queue.healthz()["ok"] is False  # not started yet
        queue.start()
        try:
            health = queue.healthz()
            assert health["ok"] is True
            assert health["workers_alive"] == 1
        finally:
            queue.shutdown()
        assert queue.healthz()["ok"] is False  # stopped
