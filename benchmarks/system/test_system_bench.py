"""Checks of the system benchmark itself (not part of the tier-1 suite).

Run with ``PYTHONPATH=src python -m pytest benchmarks/system -q``.  Every
workload runs with ``--quick`` (3 cells or iterations, one batch pass
pair), so the module takes well under a minute on two CPUs.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from reference import Probe  # noqa: E402
from run import END_TO_END  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=ROOT,
    )


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory) -> dict:
    """Untraced and traced ``--quick`` results for all five workloads."""
    out = tmp_path_factory.mktemp("quick")
    results = {}
    for trace in ("0", "1"):
        path = out / f"trace{trace}.json"
        completed = _run("--quick", "--trace", trace, "--output", str(path))
        assert completed.returncode == 0, completed.stderr
        with open(path, encoding="utf-8") as handle:
            results[trace] = json.load(handle)["runs"]
    return results


def test_benchmark_json_declares_the_metrics_run_py_prints():
    spec = _benchmark()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == END_TO_END
    assert per_layer == tracing.PER_LAYER
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)


def test_quick_runs_print_every_metric_and_check_outputs(quick_runs):
    spec = _benchmark()
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for trace, runs in quick_runs.items():
        assert [run["workload"] for run in runs] == list(workloads.WORKLOADS)
        for run in runs:
            result = run["result"]
            assert result["correct"], run["problems"]
            assert result["failed"] == 0 and result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == expected[trace]
    for run in quick_runs["0"]:
        assert all(m["value"] > 0 for m in run["result"]["metrics"].values())


def test_traced_cells_are_attributed_and_traces_validate(quick_runs):
    from repro.obs import validate_chrome_trace

    for run in quick_runs["1"]:
        details = run["details"]
        if run["workload"] in workloads.CELLS:
            unattributed = run["result"]["metrics"]["tracing.unattributed_frac"]
            assert unattributed["value"] <= 0.1
        with open(ROOT / details["chrome_trace"], encoding="utf-8") as handle:
            assert validate_chrome_trace(json.load(handle)) > 1
    service = next(r for r in quick_runs["1"] if r["workload"] == "service-mix")
    assert len(service["details"]["findings"]) == 2


def test_untraced_run_leaves_wrapped_callables_original(tmp_path):
    before = tracing.current_objects()
    with Probe() as probe:
        for workload in (
            "coroutine-cells", "observed-cells", "array-cells", "batch-grid"
        ):
            workloads.run_phase(
                workload, 0, workloads.Budget(0.0, 1), tmp_path / workload, None, probe
            )
    after = tracing.current_objects()
    assert all(after[key] is before[key] for key in before)

    installation = tracing.install(tracing.Tracer())
    wrapped = tracing.current_objects()
    assert all(wrapped[key] is not before[key] for key in before)
    installation.restore()
    restored = tracing.current_objects()
    assert all(restored[key] is before[key] for key in before)


def test_doctored_digest_makes_run_py_exit_1(tmp_path):
    with open(HERE / "baseline.json", encoding="utf-8") as handle:
        baseline = json.load(handle)
    baseline["digests"]["coroutine-cells"] = "0" * 64
    doctored = tmp_path / "baseline.json"
    doctored.write_text(json.dumps(baseline), encoding="utf-8")
    completed = _run(
        "--workload", "coroutine-cells", "--quick", "--baseline", str(doctored)
    )
    assert completed.returncode == 1
    assert json.loads(completed.stdout.splitlines()[-1])["correct"] is False
    assert "digest" in completed.stderr


def _copy_benchmark(checkout: Path) -> Path:
    """BENCHMARK.json and this directory, alone, under ``checkout``."""
    shutil.copy(ROOT / "BENCHMARK.json", checkout / "BENCHMARK.json")
    bench = checkout / "benchmarks" / "system"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    return bench


def test_run_py_refuses_a_checkout_without_sources(tmp_path):
    _copy_benchmark(tmp_path)
    completed = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", "--workload", "array-cells",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""


def test_a_failed_operation_still_ends_with_the_result_line(tmp_path):
    # The second cell runs the diagnostic algorithm that always raises.
    bench = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    source = (bench / "workloads.py").read_text(encoding="utf-8")
    algorithms = '["randomized"],\n            [params["family"]],'
    assert source.count(algorithms) == 1
    (bench / "workloads.py").write_text(
        source.replace(
            algorithms,
            '["crashing" if index == 1 else "randomized"],\n'
            '            [params["family"]],',
        ),
        encoding="utf-8",
    )
    completed = subprocess.run(
        [sys.executable, "benchmarks/system/run.py", "--workload",
         "coroutine-cells", "--quick"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert completed.returncode == 1, completed.stderr
    summary = json.loads(completed.stdout.splitlines()[-1])
    assert summary["correct"] is False
    assert (summary["attempted"], summary["failed"]) == (3, 1)
    metrics = summary["metrics"]
    assert metrics["latency_p90_ms"]["value"] is None
    assert metrics["latency_p50_ms"]["value"] > 0


def test_every_operation_kind_moves_the_end_to_end_timings():
    base = {"cold": 40.0, "cached": 5.0, "coalesced": 2.0}
    slower = dict(base, coalesced=4.0)
    ratio = workloads.across_kinds(slower.values()) / workloads.across_kinds(
        base.values()
    )
    assert ratio == pytest.approx(2 ** (1 / 3))
    assert workloads.across_kinds([2.0]) == pytest.approx(2.0)
    assert workloads.across_kinds([40.0, math.inf]) == math.inf
    assert workloads.across_kinds([40.0, 0.0]) == 0.0


@pytest.mark.parametrize(
    "base, change, better, expected",
    [
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "lower", "worse"),
        ([10.0, 10.1, 9.9, 10.0], [10.1, 10.0, 10.0, 9.9], "lower", "unchanged"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "lower", "better"),
        ([10.0, 10.1, 9.9, 10.0], [8.0, 8.1, 7.9, 8.0], "higher", "worse"),
        ([10.0, 14.0, 7.0, 10.0], [10.5, 14.0, 7.5, 9.0], "lower", "unresolved"),
    ],
)
def test_compare_verdicts(base, change, better, expected):
    assert compare.verdict(base, change, better, 0.1)[0] == expected
