"""Pool execution: determinism, crash isolation, resume, timeout, retries."""

from __future__ import annotations

import gc
import signal
import sys
import time

from repro.orchestrator import (
    STATUS_FAILED,
    STATUS_OK,
    JobSpec,
    ResultCache,
    RunRecord,
    RunStore,
    execute_with_policy,
    expand_grid,
    pool,
    run_jobs,
)

GRID = dict(
    algorithms=["randomized", "traditional"],
    families=["ring", "gnp"],
    sizes=[8, 12],
    seeds=[0, 1],
)


class TestDeterminismUnderParallelism:
    def test_serial_pool_and_cache_records_byte_identical(self, tmp_path):
        """Same JobSpec => byte-identical metric records, however executed."""
        specs = expand_grid(**GRID)
        serial = run_jobs(specs, workers=1)
        pooled = run_jobs(specs, workers=4)

        cache = ResultCache(tmp_path / "cache")
        primed = run_jobs(specs, workers=4, cache=cache)
        replayed = run_jobs(specs, workers=1, cache=cache)
        assert replayed.cached == len(specs)
        assert replayed.executed == 0

        for a, b, c, d in zip(
            serial.records, pooled.records, primed.records, replayed.records
        ):
            assert a.status == STATUS_OK
            assert a.fingerprint() == b.fingerprint()
            assert a.fingerprint() == c.fingerprint()
            assert a.fingerprint() == d.fingerprint()

    def test_records_in_submission_order(self):
        specs = expand_grid(**GRID)
        report = run_jobs(specs, workers=4)
        assert [record.key for record in report.records] == [
            spec.key for spec in specs
        ]


class TestCrashIsolationAndResume:
    def _mixed_grid(self):
        """Two crashing cells hidden inside an otherwise healthy grid."""
        good = expand_grid(["randomized"], ["ring"], [8, 12], [0, 1])
        bad = expand_grid(["crashing"], ["ring"], [8], [0, 1])
        return good[:2] + bad + good[2:]

    def test_worker_exception_becomes_failed_record(self, tmp_path):
        specs = self._mixed_grid()
        store = tmp_path / "runs.jsonl"
        report = run_jobs(specs, workers=4, store=store)
        assert report.failed == 2
        by_status = {record.status for record in report.records}
        assert by_status == {STATUS_OK, STATUS_FAILED}
        for failure in report.failures():
            assert failure.spec["algorithm"] == "Crashing-MST"
            assert "Crashing-MST always fails" in failure.error
        # The rest of the grid completed and everything was journaled.
        assert len(RunStore(store).load()) == len(specs)

    def test_resume_executes_only_failed_and_missing_cells(self, tmp_path):
        specs = self._mixed_grid()
        store = tmp_path / "runs.jsonl"
        first = run_jobs(specs, workers=2, store=store)
        assert first.executed == len(specs) and first.failed == 2

        # Add one brand-new cell, then resume: only the 2 failed and the
        # 1 missing cell may execute.
        extra = JobSpec.create("randomized", "path", 8, 0)
        second = run_jobs(specs + [extra], workers=2, store=store, resume=store)
        assert second.resumed == len(specs) - 2
        assert second.executed == 3
        assert second.failed == 2  # crashing cells still fail

        # Resumed records were not re-appended to the same ledger.
        appended = RunStore(store).load()
        assert len(appended) == len(specs) + 3

    def test_resume_reruns_a_key_whose_latest_record_failed(self, tmp_path):
        # An ok record, then a re-run that regressed: the latest record
        # rules, so the cell executes again.
        spec = JobSpec.create("randomized", "ring", 8, 0)
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(RunRecord.ok(spec, {"stored": True}))
        store.append(RunRecord.failed(spec, "RuntimeError: boom"))
        report = run_jobs([spec], resume=store)
        assert report.resumed == 0 and report.executed == 1
        (record,) = report.records
        assert record.status == STATUS_OK
        assert record.metrics != {"stored": True}

    def test_resume_skips_a_key_whose_latest_record_is_ok(self, tmp_path):
        # A failure, then a retry that succeeded: the stored ok record is
        # reused and nothing executes.
        spec = JobSpec.create("randomized", "ring", 8, 0)
        store = RunStore(tmp_path / "runs.jsonl")
        store.append(RunRecord.failed(spec, "RuntimeError: boom"))
        store.append(RunRecord.ok(spec, {"stored": True}))
        report = run_jobs([spec], resume=store)
        assert report.resumed == 1 and report.executed == 0
        (record,) = report.records
        assert record.metrics == {"stored": True}

    def test_failed_records_never_served_from_cache(self, tmp_path):
        spec = JobSpec.create("crashing", "ring", 8, 0)
        cache = ResultCache(tmp_path / "cache")
        run_jobs([spec], cache=cache)
        report = run_jobs([spec], cache=cache)
        assert report.cached == 0 and report.executed == 1


class TestPolicy:
    def test_retries_are_bounded_and_counted(self):
        spec = JobSpec.create("crashing", "ring", 8, 0)
        report = run_jobs([spec], retries=2)
        (record,) = report.records
        assert record.status == STATUS_FAILED
        assert record.telemetry["attempts"] == 3

    def test_timeout_produces_failed_record(self):
        # Deterministic-MST at n=32 takes far longer than 5ms.
        spec = JobSpec.create("deterministic", "gnp", 32, 0)
        report = run_jobs([spec], timeout=0.005)
        (record,) = report.records
        assert record.status == STATUS_FAILED
        assert "JobTimeout" in record.error

    def test_timeout_swallowed_by_a_gc_callback_still_fails(self, monkeypatch):
        """CPython prints and drops an exception raised inside a
        ``gc.callbacks`` entry; an alarm landing there must still fail
        the cell, and the previous SIGALRM handler must come back."""

        def spin(seconds):
            deadline = time.perf_counter() + seconds
            while time.perf_counter() < deadline:
                pass

        def slow_callback(phase, info):
            if phase == "start":
                spin(0.05)

        def job(spec):
            gc.collect()  # the 10 ms alarm fires inside slow_callback
            spin(0.1)
            return {}

        monkeypatch.setattr(pool, "execute_job", job)
        # Where the alarm's exception goes when CPython drops it.
        monkeypatch.setattr(sys, "unraisablehook", lambda unraisable: None)
        previous = signal.getsignal(signal.SIGALRM)
        gc.callbacks.append(slow_callback)
        try:
            record = execute_with_policy(
                JobSpec.create("randomized", "ring", 8, 0), timeout=0.01
            )
        finally:
            gc.callbacks.remove(slow_callback)
        assert record.status == STATUS_FAILED
        assert "JobTimeout" in record.error
        assert signal.getsignal(signal.SIGALRM) is previous

    def test_report_summary_counts(self, tmp_path):
        specs = expand_grid(["randomized"], ["ring"], [8], [0, 1])
        cache = ResultCache(tmp_path / "cache")
        run_jobs(specs, cache=cache)
        report = run_jobs(specs, cache=cache)
        summary = report.summary()
        assert summary["cached"] == 2 and summary["executed"] == 0
        assert summary["cache"]["hits"] == 2
        assert summary["progress"]["done"] == 2
