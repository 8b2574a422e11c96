"""System benchmark: five closed-loop workloads, end to end and per layer.

Run every workload once, print every metric with its unit, check every
output, and exit 1 on any wrong one::

    python3 benchmarks/system/run.py --seed 0 --output OUT.json

One workload, the way an automated runner calls it (the last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``)::

    python3 benchmarks/system/run.py --workload coroutine-cells \\
        --seed 3 --seconds 15 --trace 0

``--trace 1`` reports the per-layer metrics instead: half the run is
measured untraced, then the layer wrappers from ``tracing.py`` go in and
the same inputs run again; a Chrome trace lands in ``.bench_work/``.
See README.md for the workloads, metrics, bounds and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from reference import REFERENCE_NOMINAL_S, Probe, last_cpu
from workloads import HERE, WORKLOADS, Daemon, child_env, wait_healthy

ROOT = HERE.parents[1]
WORK = ROOT / ".bench_work"
SCHEMA = "system-bench/1"

#: End-to-end metrics every workload reports untraced, with units.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Fresh launches per run whose median is ``setup_s``.
SETUP_LAUNCHES = 7
#: A run (set-up, measurement, teardown) must end within this.
RUN_LIMIT_S = 175.0


def time_setup(workload: str, work: Path, index: int) -> Tuple[float, int]:
    """Wall seconds from spawn to ready, and the CPU the launched process
    last ran on.  Ready means the workload's imports are done, or for
    ``service-mix`` the first ``/healthz`` 200."""
    start = time.perf_counter()
    if workload == "service-mix":
        daemon = Daemon(work / f"setup-{index}", work)
        try:
            wait_healthy(daemon.url)
            return time.perf_counter() - start, last_cpu(daemon.process.pid)
        finally:
            daemon.stop()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"), workload, "--ready"],
        stdout=subprocess.PIPE,
        text=True,
        env=child_env(work),
    )
    line = process.stdout.readline()
    elapsed = time.perf_counter() - start
    # Not yet reaped, so its /proc entry is still there.
    cpu = last_cpu(process.pid)
    process.stdout.close()
    if process.wait() != 0 or line.strip() != "ready":
        raise RuntimeError(f"{workload} set-up launch failed: {line!r}")
    return elapsed, cpu


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: int,
    quick: bool,
    digests: Dict[str, str],
) -> Dict[str, Any]:
    """One measured run of ``workload``; returns the run entry."""
    started = time.perf_counter()
    work = WORK / f"run-{os.getpid()}-{workload}-{seed}-{trace}"
    work.mkdir(parents=True)
    try:
        # (wall, nominal) seconds per launch, scaled by the speed of the
        # launched process's CPU just before and after the launch.
        setup = []
        with Probe() as probe:
            before = probe.times()
            for index in range(1 if quick else SETUP_LAUNCHES):
                wall, cpu = time_setup(workload, work, index)
                after = probe.times()
                nominal = wall * REFERENCE_NOMINAL_S * 2 / (before[cpu] + after[cpu])
                setup.append((wall, nominal))
                before = after
        result_path = work / "result.json"
        command = [
            sys.executable,
            str(HERE / "workloads.py"),
            workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
            "--work", str(work),
            "--result", str(result_path),
            "--chrome-trace", str(WORK / f"trace-{workload}.json"),
        ] + (["--quick"] if quick else [])
        # Own session, so a hung child's daemon and pool workers die with it.
        child = subprocess.Popen(command, env=child_env(work), start_new_session=True)
        try:
            code = child.wait(RUN_LIMIT_S - (time.perf_counter() - started))
        finally:
            if child.poll() is None:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        if code != 0:
            raise RuntimeError(f"{workload} run exited with {code}")
        with open(result_path, encoding="utf-8") as handle:
            raw = json.load(handle)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems: List[str] = []
    if raw["wrong"]:
        problems.append(f"{raw['wrong']} wrong outputs")
    if raw["failed"]:
        problems.append(f"{raw['failed']} failed operations")
    pinned = digests.get(workload)
    if seed == 0 and pinned is not None and raw["digest"] != pinned:
        problems.append(f"digest {raw['digest']} != pinned {pinned}")
    if trace:
        from tracing import PER_LAYER

        values, units = raw["per_layer"], PER_LAYER
    else:
        values = dict(
            raw["end_to_end"], setup_s=statistics.median(s for _, s in setup)
        )
        units = END_TO_END
    # A failed operation makes a percentile infinite, which JSON cannot
    # carry; such a run is already marked incorrect.
    metrics = {
        name: {
            "value": values[name] if math.isfinite(values[name]) else None,
            "unit": unit,
        }
        for name, unit in units.items()
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "result": {
            "correct": not problems,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": metrics,
        },
        "problems": problems,
        "details": dict(
            raw["details"],
            digest=raw["digest"],
            setup_samples_s=[s for _, s in setup],
            wall_setup_samples_s=[wall for wall, _ in setup],
        ),
    }


def append_output(path: Path, entries: Sequence[Dict[str, Any]]) -> None:
    """Add run entries to a results file (created with the environment)."""
    if path.exists():
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    else:
        from repro.bench import environment_fingerprint

        payload = {"schema": SCHEMA, "env": environment_fingerprint(), "runs": []}
    payload["runs"].extend(entries)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--workload", default="all", choices=("all",) + WORKLOADS,
        help="one workload, or all five in order (default)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=15.0,
        help="measured seconds per run (default 15)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from a traced run",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="3 cells or iterations (1 batch pass pair) and 1 set-up launch",
    )
    parser.add_argument("--output", help="append run entries to this JSON file")
    parser.add_argument(
        "--baseline", default=str(HERE / "baseline.json"),
        help="pinned seed-0 digests (default: baseline.json beside this file)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    with open(args.baseline, encoding="utf-8") as handle:
        digests = json.load(handle)["digests"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    entries = []
    for workload in workloads:
        entry = run_workload(
            workload, args.seed, args.seconds, args.trace, args.quick, digests
        )
        entries.append(entry)
        for name, metric in entry["result"]["metrics"].items():
            value = math.inf if metric["value"] is None else metric["value"]
            print(f"{workload:16} {name:40} {value:14.6g} {metric['unit']}")
        for problem in entry["problems"]:
            print(f"{workload}: WRONG: {problem}", file=sys.stderr)
    if args.output:
        append_output(Path(args.output), entries)
    if len(entries) == 1:
        summary = entries[0]["result"]
    else:
        summary = {
            "correct": all(entry["result"]["correct"] for entry in entries),
            "attempted": sum(entry["result"]["attempted"] for entry in entries),
            "failed": sum(entry["result"]["failed"] for entry in entries),
            "metrics": {
                f"{entry['workload']}.{name}": metric
                for entry in entries
                for name, metric in entry["result"]["metrics"].items()
            },
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
