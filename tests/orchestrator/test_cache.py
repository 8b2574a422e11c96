"""Content-addressed result cache: hits, misses, versioning, corruption."""

from __future__ import annotations

from repro.orchestrator import JobSpec, ResultCache, RunRecord


def _record(seed: int = 0) -> RunRecord:
    spec = JobSpec.create("randomized", "ring", 8, seed)
    return RunRecord.ok(
        spec,
        {"algorithm": "Randomized-MST", "n": 8, "seed": seed},
        telemetry={"elapsed_s": 1.23, "pid": 999},
    )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = _record()
        assert cache.get(record.key) is None
        assert cache.put(record)
        hit = cache.get(record.key)
        assert hit is not None
        assert hit.metrics == record.metrics
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1

    def test_telemetry_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = _record()
        cache.put(record)
        assert cache.get(record.key).telemetry == {}

    def test_failed_records_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = JobSpec.create("crashing", "ring", 8, 0)
        assert not cache.put(RunRecord.failed(spec, "boom"))
        assert cache.get(spec.key) is None

    def test_version_isolation(self, tmp_path):
        old = ResultCache(tmp_path, version="1.0.0")
        old.put(_record())
        bumped = ResultCache(tmp_path, version="2.0.0")
        assert bumped.get(_record().key) is None  # code changed: recompute

    def test_corrupted_entry_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = _record()
        cache.put(record)
        cache.path_for(record.key).write_text("{not json", encoding="utf-8")
        assert cache.get(record.key) is None
        assert cache.stats()["corrupt"] == 1

    def test_key_mismatch_degrades_to_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        record = _record()
        other = _record(seed=5)
        cache.put(record)
        # An entry stored under the wrong address must not be served.
        cache.path_for(other.key).parent.mkdir(parents=True, exist_ok=True)
        cache.path_for(other.key).write_text(
            cache.path_for(record.key).read_text(), encoding="utf-8"
        )
        assert cache.get(other.key) is None


def test_entry_bytes_are_pinned(tmp_path):
    """One encoder call writes the same bytes the streaming encoder did."""
    spec = JobSpec.create(
        "randomized", "gnp", 16, 3,
        options={"faults": "drop:0.05", "monitors": "all"},
    )
    record = RunRecord.ok(
        spec,
        {
            "algorithm": "Randomized-MST",
            "n": 16,
            "mean_awake": 3.125,
            "crashed_nodes": [4, 9],
            "fault_counters": {
                "dropped": 2, "delayed": 0, "ratio": 0.5, "note": "é–x"
            },
            "correct": True,
            "error": None,
        },
        telemetry={"elapsed_s": 1.23, "pid": 999},
    )
    cache = ResultCache(tmp_path, version="pin")
    assert cache.put(record)
    assert cache.path_for(record.key).read_bytes() == (
        b'{"key": "84f5345f37e2c4a5a73cde9575303f5396fcc686e83c85271d4980c4619824b6",'
        b' "metrics": {"algorithm": "Randomized-MST", "correct": true,'
        b' "crashed_nodes": [4, 9], "error": null, "fault_counters":'
        b' {"delayed": 0, "dropped": 2, "note": "\\u00e9\\u2013x", "ratio": 0.5},'
        b' "mean_awake": 3.125, "n": 16}, "schema": 1, "spec": {"algorithm":'
        b' "Randomized-MST", "family": "gnp", "id_range": null, "n": 16,'
        b' "options": {"faults": "drop:0.05", "monitors": "all"}, "seed": 3},'
        b' "status": "ok", "telemetry": {}}'
    )
