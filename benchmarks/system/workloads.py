"""The system benchmark's five workloads, one fresh child process per run.

``run.py`` starts this script once per measured run and several more
times with ``--ready`` to time set-up.  Everything here is a closed loop
driven by one client: the next operation starts only after the previous
one has returned and been checked.

Inputs come only from ``--seed``: cell ``i`` of a workload uses seed
``SEED_STRIDE * seed + i``, so one workload seed never reaches another's
cells and seed 1 can serve as a held-out set.

Debugging use (``run.py`` passes the same flags)::

    PYTHONPATH=src python3 benchmarks/system/workloads.py coroutine-cells \\
        --seed 0 --seconds 5 --trace 0 --work .bench_work/dbg --result r.json

Only the standard library is imported at module level, so ``run.py`` can
import :class:`Daemon` and :func:`wait_healthy` without ``repro``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from reference import REFERENCE_NOMINAL_S, Probe, last_cpu

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

_clock = time.perf_counter

WORKLOADS = (
    "coroutine-cells",
    "observed-cells",
    "array-cells",
    "service-mix",
    "batch-grid",
)

SEED_STRIDE = 100_000
#: The correctness digest covers the records of the first operations.
DIGEST_OPS = 3
#: ``--quick`` runs this many cells, service iterations, or one batch pass
#: pair per phase, whatever ``--seconds`` says.
QUICK_OPS = 3
#: The service client polls after 0.5 ms, then doubles the delay up to
#: 5 ms.  With a fixed 5 ms interval a cached request's latency would be
#: mostly the client's own sleep, which no change to the service moves.
FIRST_POLL_S = 0.0005
POLL_INTERVAL_S = 0.005
#: Seeds per batch pass (8 cells each).  Short passes give many frames
#: per run, so the percentiles rest on many passes' speeds.
BATCH_SEEDS = 6
BATCH_WORKERS = 2

#: Randomized-MST cells per ``*-cells`` workload.  Sizes keep a cell
#: at 20-40 nominal ms, so a 15 s run collects about 200 samples even
#: while neighbours slow the CPU to half speed: the p90 keeps twenty
#: beyond it.  At gnp n=64 a run could end with 92 cells, and its p90
#: alone varied by 6% under resampling.
CELLS: Dict[str, Dict[str, Any]] = {
    "coroutine-cells": {"family": "gnp", "n": 32},
    "observed-cells": {
        "family": "gnp",
        "n": 24,
        "faults": "dup:0.1",
        "monitors": "all",
    },
    "array-cells": {"family": "grid", "n": 512, "engine": "array"},
}

#: Per-layer values a traced run takes from its untraced half, because
#: they are what a user sees and tracing would distort them.
UNTRACED_EXTRAS = (
    "orchestrator.pool.cold_cells_per_s",
    "orchestrator.store.replay_cells_per_s",
    "service.queue.coalesced_drift_frac",
    "service.client.polls_per_cold",
    "service.client.unfinished_poll_frac",
    "service.client.cold_p50_ms",
    "service.client.cold_p95_ms",
    "service.client.cached_p50_ms",
    "service.client.cached_p95_ms",
    "service.client.coalesced_p50_ms",
    "service.client.coalesced_p95_ms",
)


def cell_seed(seed: int, index: int) -> int:
    return SEED_STRIDE * seed + index


def child_env(work: Optional[Path] = None) -> Dict[str, str]:
    """Environment for benchmark children: ``src`` importable, temp files
    kept inside ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    if work is not None:
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; a failed op (``inf``) can dominate."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if math.isinf(ordered[high]):
        return math.inf
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def across_kinds(values: Iterable[float]) -> float:
    """The geometric mean of one metric over a workload's operation kinds.

    With one kind this is that kind's value.  With several, each kind
    weighs the same in relative terms whatever its share of the
    operations or its size: a kind that gets slower by a factor ``r``
    moves the result by ``r ** (1 / kinds)``, even when its operations
    are the fastest.  A failed op's infinite latency, or a kind with
    nothing done, decides the result.
    """
    values = list(values)
    if any(math.isinf(value) for value in values):
        return math.inf
    if min(values) <= 0.0:
        return 0.0
    return statistics.geometric_mean(values)


def wait_healthy(url: str, timeout_s: float = 30.0) -> None:
    """Poll ``/healthz`` until it answers 200."""
    deadline = _clock() + timeout_s
    while True:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=5) as response:
                if response.status == 200:
                    return
        except (urllib.error.URLError, ConnectionError):
            pass
        if _clock() > deadline:
            raise RuntimeError(f"daemon at {url} not healthy after {timeout_s}s")
        time.sleep(0.002)


class Daemon:
    """One ``repro serve --port 0 --quiet`` subprocess with default flags.

    With ``dump`` it starts through ``serve.py``, which installs the
    layer wrappers and writes their stats and spans there when the
    daemon exits.
    """

    def __init__(self, root: Path, work: Path, dump: Optional[Path] = None):
        if dump is None:
            command = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            command = [sys.executable, str(HERE / "serve.py"), str(dump)]
        command += ["--port", "0", "--quiet", "--root", str(root)]
        self._log = open(work / "daemon.log", "a", encoding="utf-8")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            env=child_env(work),
        )
        line = self.process.stdout.readline()
        if not line.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        self.url = line.split()[2]

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, then wait (kill after 30 s); always reaps the process."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Budget:
    """Run until the deadline (at least one op), or exactly ``quick`` ops."""

    def __init__(self, seconds: float, quick: Optional[int]):
        self.deadline = _clock() + seconds
        self.quick = quick

    def more(self, done: int) -> bool:
        if self.quick is not None:
            return done < self.quick
        return done == 0 or _clock() < self.deadline


class Phase:
    """What one measured phase of a workload saw.

    Operations are grouped in frames (a cell, a request, a batch pass),
    each of one kind.  Before the first frame and after each one,
    ``probe`` times the reference mix on every CPU (see ``reference.py``)
    while this process waits.  Every time in a frame is scaled by
    ``REFERENCE_NOMINAL_S`` over the mean of the timings on either side:
    on the CPU this process last ran on, or averaged over every CPU when
    other processes did the frame's work on any CPU (``shared``: the
    batch pool).  So a
    neighbour slowing a CPU for a while moves the reported times far
    less than the wall clock.  Raw wall times are kept too.

    Throughput and latency percentiles are kept per kind and reported
    through :func:`across_kinds`.
    """

    def __init__(self, probe: Probe) -> None:
        self.attempted = 0
        #: Nominal seconds from request to checked record of each op, by
        #: kind (``inf`` if the op failed), and the same in wall seconds.
        self.latencies: Dict[str, List[float]] = {}
        self.wall_latencies: Dict[str, List[float]] = {}
        #: Per kind: ops done (not failed), and the frames' summed time
        #: in nominal seconds (the throughput denominator) and in wall
        #: seconds.
        self.done: Dict[str, int] = {}
        self.busy_s: Dict[str, float] = {}
        self.wall_busy_s: Dict[str, float] = {}
        #: Wall seconds and scale of each frame.
        self.frames: List[float] = []
        self.scales: List[float] = []
        self.failed = 0
        self.wrong = 0
        self.fingerprints: List[bytes] = []
        self.records = 0
        self.rounds = 0
        self.messages = 0
        self.checks = 0
        self.peak_rss_mb = 0.0
        #: Per-layer values this phase measured itself.
        self.extras: Dict[str, float] = {}
        self.details: Dict[str, Any] = {}
        self.daemon_dump: Optional[Dict[str, Any]] = None
        self._probe = probe
        self._reference = probe.times()

    def frame(
        self,
        elapsed: float,
        ops: Sequence[Tuple[float, Sequence[Any], bool, bool]],
        kind: Optional[str] = "op",
        shared: bool = False,
    ) -> None:
        """Close one frame of ``(latency, records, failed, wrong)`` ops.

        The ops of a frame of kind ``None`` are checked and count as
        attempted, but stay out of throughput and percentiles.
        """
        reference = self._probe.times()
        cpus = self._probe.cpus if shared else [last_cpu()]
        scale = REFERENCE_NOMINAL_S / statistics.fmean(
            (self._reference[cpu] + reference[cpu]) / 2.0 for cpu in cpus
        )
        self._reference = reference
        self.frames.append(elapsed)
        self.scales.append(scale)
        if kind is not None:
            self.busy_s[kind] = self.busy_s.get(kind, 0.0) + elapsed * scale
            self.wall_busy_s[kind] = self.wall_busy_s.get(kind, 0.0) + elapsed
            done = sum(not failed for _, _, failed, _ in ops)
            self.done[kind] = self.done.get(kind, 0) + done
            self.latencies.setdefault(kind, []).extend(
                math.inf if failed else latency * scale for latency, _, failed, _ in ops
            )
            self.wall_latencies.setdefault(kind, []).extend(
                math.inf if failed else latency for latency, _, failed, _ in ops
            )
        for latency, records, failed, wrong in ops:
            self.attempted += 1
            self.failed += failed
            self.wrong += wrong and not failed
            if self.attempted <= DIGEST_OPS:
                self.fingerprints.extend(record.fingerprint() for record in records)
            for record in records:
                metrics = record.metrics or {}
                self.records += 1
                self.rounds += metrics.get("rounds") or 0
                self.messages += metrics.get("messages") or 0
                self.checks += metrics.get("monitor_checks") or 0

    def digest(self) -> str:
        return hashlib.sha256(b"\n".join(self.fingerprints)).hexdigest()

    def _timings(
        self, busy_s: Dict[str, float], latencies: Dict[str, List[float]]
    ) -> Tuple[float, float, float]:
        return (
            across_kinds(self.done[kind] / busy_s[kind] for kind in busy_s),
            1000.0 * across_kinds(percentile(v, 0.50) for v in latencies.values()),
            1000.0 * across_kinds(percentile(v, 0.90) for v in latencies.values()),
        )

    def end_to_end(self) -> Dict[str, float]:
        throughput, p50, p90 = self._timings(self.busy_s, self.latencies)
        return {
            "throughput_per_s": throughput,
            "latency_p50_ms": p50,
            "latency_p90_ms": p90,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def wall_details(self) -> Dict[str, float]:
        """The same timings on the wall clock, plus the machine's speed."""
        throughput, p50, p90 = self._timings(self.wall_busy_s, self.wall_latencies)
        return {
            "wall_throughput_per_s": throughput,
            "wall_latency_p50_ms": p50,
            "wall_latency_p90_ms": p90,
            "machine_speed": percentile(self.scales, 0.5),
        }

    def record_extras(self) -> Dict[str, float]:
        per_op = 1.0 / max(1, self.attempted)
        return {
            "sim.engine.rounds": self.rounds * per_op,
            "sim.engine.messages": self.messages * per_op,
            "invariants.checks": self.checks * per_op,
        }


def record_ok(record: Any) -> bool:
    return record.status == "ok" and bool((record.metrics or {}).get("correct"))


def _op(tracer: Any, span: str, op_id: str):
    return tracer.op(span, op_id) if tracer is not None else nullcontext()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- *-cells ----------------------------------------------------------------


def run_cells(
    workload: str, seed: int, budget: Budget, tracer: Any, probe: Probe
) -> Phase:
    """Back-to-back ``execute_with_policy`` calls, one fresh cell each."""
    from repro.orchestrator import execute_with_policy, expand_grid

    params = CELLS[workload]
    phase = Phase(probe)
    index = 0
    while budget.more(index):
        (spec,) = expand_grid(
            ["randomized"],
            [params["family"]],
            [params["n"]],
            [cell_seed(seed, index)],
            faults=[params["faults"]] if "faults" in params else None,
            monitors=params.get("monitors"),
            engine=params.get("engine"),
        )
        with _op(tracer, "cell", f"cell-{index}"):
            start = _clock()
            record = execute_with_policy(spec)
            elapsed = _clock() - start
        phase.frame(
            elapsed, [(elapsed, [record], record.status != "ok", not record_ok(record))]
        )
        index += 1
    phase.peak_rss_mb = _self_rss_mb()
    phase.extras.update(phase.record_extras())
    return phase


# -- service-mix --------------------------------------------------------------

_KINDS = ("cold", "cached", "coalesced")


def service_grid(seeds: List[int]) -> Dict[str, Any]:
    """A cold request's grid: Randomized-MST on ring and gnp, n=16."""
    return {
        "algorithms": ["randomized"],
        "families": ["ring", "gnp"],
        "sizes": [16],
        "seeds": seeds,
    }


def wait_for(client: Any, job: str, tally: List[int], timeout_s: float = 60.0) -> None:
    """Poll ``job`` until it finishes, counting polls and unfinished ones."""
    deadline = _clock() + timeout_s
    delay = FIRST_POLL_S
    while True:
        status = client.poll(job).get("status")
        tally[0] += 1
        if status in ("done", "failed"):
            return
        tally[1] += 1
        if _clock() > deadline:
            raise TimeoutError(f"job {job} still {status} after {timeout_s}s")
        time.sleep(delay)
        delay = min(2 * delay, POLL_INTERVAL_S)


def run_service(
    seed: int, budget: Budget, work: Path, tracer: Any, probe: Probe
) -> Phase:
    """Cold, cached and coalesced requests against a ``repro serve`` daemon.

    Each request is a frame of its own kind (see :func:`across_kinds`):
    a cold request takes about ten times as long as a cached one and
    twenty times as long as a coalesced one, so in one pool the cheap
    kinds could double without moving any metric.  Client and daemon
    run on one CPU, and one untimed iteration warms the daemon up.
    """
    from repro.orchestrator import RunRecord
    from repro.service import ServiceClient, ServiceError
    from repro.telemetry import parse_prometheus

    dump = work / "daemon-dump.json" if tracer is not None else None
    # Client and daemon (which inherits the affinity) share one CPU.  On
    # two CPUs a request hops between processes, and each hop meets the
    # other CPU's speed of the moment, which no reference timed between
    # requests can follow.  On one CPU the request path runs serially, as
    # the daemon's interpreter lock mostly makes it run anyway, and the
    # reference on that CPU scales it as it does a cell.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(affinity)})
    daemon = None
    try:
        daemon = Daemon(work / "service-root", work, dump=dump)
        wait_healthy(daemon.url)
        client = ServiceClient(daemon.url, timeout_s=60.0)
        # One untimed iteration on seeds no measured request uses: the
        # daemon's first job imports the simulator.
        warm = service_grid(
            [cell_seed(seed, SEED_STRIDE - 2), cell_seed(seed, SEED_STRIDE - 1)]
        )
        for payload in (warm, dict(warm, seeds=warm["seeds"][::-1]), warm):
            job = client.submit(payload)["job"]
            wait_for(client, job, [0, 0])
            if client.fetch(job)["status"] != "done":
                raise RuntimeError(f"warm-up job {job} failed")
        phase = Phase(probe)
        polls = {kind: [0, 0] for kind in _KINDS}
        cold_grids: List[Dict[str, Any]] = []
        cold_prints: List[List[bytes]] = []
        iteration = 0
        while budget.more(iteration):
            seeds = [cell_seed(seed, 2 * iteration), cell_seed(seed, 2 * iteration + 1)]
            grid = service_grid(seeds)
            for kind in _KINDS:
                if kind == "cold":
                    payload = grid
                elif kind == "cached":
                    payload = dict(grid, seeds=seeds[::-1])
                else:
                    payload = cold_grids[iteration // 2]
                op_id = f"req-{iteration}-{kind}"
                client.trace_id = op_id
                submission: Dict[str, Any] = {}
                with _op(tracer, f"request {kind}", op_id):
                    start = _clock()
                    try:
                        submission = client.submit(payload)
                        wait_for(client, submission["job"], polls[kind])
                        result = client.fetch(submission["job"])
                    except (ServiceError, TimeoutError) as error:
                        result = {"status": "failed", "error": str(error)}
                    elapsed = _clock() - start
                records = [RunRecord.from_dict(r) for r in result.get("records") or []]
                failed = result["status"] != "done" or len(records) != 4
                prints = [record.fingerprint() for record in records]
                wrong = not all(record_ok(record) for record in records)
                if kind == "cold":
                    cold_grids.append(grid)
                    cold_prints.append(prints)
                elif kind == "cached":
                    wrong |= result.get("summary", {}).get("executed") != 0
                    wrong |= sorted(prints) != sorted(cold_prints[iteration])
                else:
                    wrong |= submission.get("coalesced") is not True
                    wrong |= prints != cold_prints[iteration // 2]
                phase.frame(elapsed, [(elapsed, records, failed, wrong)], kind)
            iteration += 1
        phase.peak_rss_mb = daemon.peak_rss_mb()
        samples = parse_prometheus(client.metrics_text())
        stats = client.stats()
    finally:
        if daemon is not None:
            daemon.stop()
        os.sched_setaffinity(0, affinity)
    if dump is not None:
        with open(dump, encoding="utf-8") as handle:
            phase.daemon_dump = json.load(handle)

    requests = max(1, phase.attempted)

    def server_s(endpoint: str, method: str) -> float:
        key = (
            "service_http_request_seconds_sum"
            f'{{endpoint="{endpoint}",method="{method}"}}'
        )
        return samples.get(key, 0.0) / requests

    latencies = phase.latencies
    coalesced = latencies["coalesced"]
    third = max(1, len(coalesced) // 3)
    early = percentile(coalesced[:third], 0.5)
    late = percentile(coalesced[-third:], 0.5)
    total_polls = sum(tally[0] for tally in polls.values())
    phase.extras.update(phase.record_extras())
    phase.extras.update(
        {
            "orchestrator.cache.hit_ratio": (stats.get("cache") or {}).get(
                "hit_rate", 0.0
            ),
            "orchestrator.store.skipped_lines": stats.get("store_skipped_lines", 0),
            "service.server.post_jobs_s": server_s("/jobs", "POST"),
            "service.server.get_job_s": server_s("/jobs/{id}", "GET"),
            "service.server.get_result_s": server_s("/jobs/{id}/result", "GET"),
            "service.queue.wait_s": samples.get("service_queue_wait_seconds_sum", 0.0)
            / requests,
            "service.queue.jobs_held": stats["jobs"]["total"],
            "service.queue.coalesced_drift_frac": late / early - 1.0,
            "service.client.polls_per_cold": polls["cold"][0]
            / max(1, len(latencies["cold"])),
            "service.client.unfinished_poll_frac": sum(
                tally[1] for tally in polls.values()
            )
            / max(1, total_polls),
        }
    )
    for kind in _KINDS:
        phase.extras[f"service.client.{kind}_p50_ms"] = 1000.0 * percentile(
            latencies[kind], 0.50
        )
        phase.extras[f"service.client.{kind}_p95_ms"] = 1000.0 * percentile(
            latencies[kind], 0.95
        )
    phase.details.update(
        iterations=iteration,
        jobs_held=stats["jobs"]["total"],
        coalesced_p50_ms_first_third=1000.0 * early,
        coalesced_p50_ms_last_third=1000.0 * late,
    )
    return phase


# -- batch-grid ---------------------------------------------------------------


def batch_specs(seed: int, iteration: int) -> List[Any]:
    """The grid of one cold pass, seed by seed.

    Every pass gets fresh seeds, so a run's cost rests on hundreds of
    seeds rather than one pass's few.  Within a pass every stretch runs
    the same mix of cells, so records finish at an even pace and no
    percentile falls where one kind of cell gives way to another.
    """
    from repro.orchestrator import expand_grid

    families = ["ring", "gnp"]
    sizes = [16, 32]
    specs = []
    for index in range(BATCH_SEEDS * iteration, BATCH_SEEDS * (iteration + 1)):
        seeds = [cell_seed(seed, index)]
        specs += expand_grid(["randomized"], families, sizes, seeds)
        specs += expand_grid(["Sleeping-MIS"], families, sizes, seeds, problem="mis")
    return specs


def run_batch(
    seed: int, budget: Budget, work: Path, tracer: Any, probe: Probe
) -> Phase:
    """Alternating cold and replay ``run_jobs`` passes, a fresh grid each.

    Each cold pass gets a fresh cache and store, so every cell executes
    on the pool; the replay pass that follows reads the now-warm cache
    into another fresh store, in this process alone.  Every record is
    one operation.  A cold record's latency runs from the start of its
    pass to its store append.  Replay records are checked but not timed:
    a replay of 48 records takes about 10 ms, its 48 store fsyncs are
    I/O that no CPU reference tracks, and its rate still moved by 10%
    between runs after scaling.  Its rate is a per-layer metric.
    """
    from repro.orchestrator import ResultCache, run_jobs

    phase = Phase(probe)
    events = {"retried": 0, "crashed": 0}
    totals = {"cold_s": 0.0, "cold_cells": 0, "replay_s": 0.0, "replay_cells": 0}
    busy_cell_s = 0.0
    first_results: List[float] = []
    hits = lookups = 0
    skipped = 0
    iteration = 0
    while budget.more(iteration):
        specs = batch_specs(seed, iteration)
        base = work / f"batch-{iteration}"
        cold_prints: List[bytes] = []
        for kind in ("cold", "replay"):
            finished: Dict[str, float] = {}

            def on_event(event: str, payload: Dict[str, Any], finished=finished) -> None:
                if event == "cell_finished":
                    finished[payload["key"]] = _clock()
                elif event == "cell_retried":
                    events["retried"] += 1
                elif event == "cell_crashed":
                    events["crashed"] += 1

            cache = ResultCache(base / "cache")
            with _op(tracer, f"pass {kind}", f"{kind}-{iteration}"):
                start = _clock()
                report = run_jobs(
                    specs,
                    workers=BATCH_WORKERS,
                    cache=cache,
                    store=base / f"{kind}.jsonl",
                    on_event=on_event,
                )
                elapsed = _clock() - start
            totals[f"{kind}_s"] += elapsed
            totals[f"{kind}_cells"] += len(report.records)
            hits += cache.hits
            lookups += cache.hits + cache.misses
            skipped += report.store_skipped_lines
            if kind == "cold":
                first_results.append(min(finished.values()) - start)
                for record in report.records:
                    telemetry_s = record.telemetry.get("elapsed_s")
                    if isinstance(telemetry_s, (int, float)):
                        busy_cell_s += telemetry_s
            replay_mismatch = kind == "replay" and (
                report.executed != 0 or report.cached != len(specs)
            )
            ops = []
            for index, record in enumerate(report.records):
                fingerprint = record.fingerprint()
                if kind == "cold":
                    cold_prints.append(fingerprint)
                    wrong = False
                else:
                    wrong = replay_mismatch or fingerprint != cold_prints[index]
                ops.append(
                    (
                        finished[record.key] - start,
                        [record],
                        record.status != "ok",
                        wrong or not record_ok(record),
                    )
                )
            phase.frame(elapsed, ops, kind if kind == "cold" else None, shared=True)
        shutil.rmtree(base)
        iteration += 1
    phase.peak_rss_mb = _self_rss_mb()
    per_op = 1.0 / max(1, phase.attempted)
    phase.extras.update(phase.record_extras())
    phase.extras.update(
        {
            "orchestrator.pool.busy_frac": busy_cell_s
            / (totals["cold_s"] * BATCH_WORKERS),
            "orchestrator.pool.first_result_s": percentile(first_results, 0.5),
            "orchestrator.pool.retried": events["retried"] * per_op,
            "orchestrator.pool.crashed": events["crashed"] * per_op,
            "orchestrator.pool.cold_cells_per_s": totals["cold_cells"]
            / totals["cold_s"],
            "orchestrator.cache.hit_ratio": hits / max(1, lookups),
            "orchestrator.store.skipped_lines": skipped,
            "orchestrator.store.replay_cells_per_s": totals["replay_cells"]
            / totals["replay_s"],
        }
    )
    phase.details.update(iterations=iteration, grid_cells=len(specs))
    return phase


# -- entry point --------------------------------------------------------------


def prepare(workload: str) -> None:
    """Import what a cell or batch workload needs before its first cell."""
    import repro.orchestrator  # noqa: F401

    if workload == "observed-cells":
        import repro.invariants  # noqa: F401
    elif workload == "array-cells":
        import repro.core.array_ops  # noqa: F401


def run_phase(
    workload: str, seed: int, budget: Budget, work: Path, tracer: Any, probe: Probe
) -> Phase:
    work.mkdir(parents=True, exist_ok=True)
    if workload in CELLS:
        return run_cells(workload, seed, budget, tracer, probe)
    if workload == "service-mix":
        return run_service(seed, budget, work, tracer, probe)
    return run_batch(seed, budget, work, tracer, probe)


def _findings(phase: Phase) -> List[str]:
    """The two service-path findings the traced service run reports."""
    from repro.cli import build_parser

    interval = build_parser().parse_args(["submit"]).interval
    details = phase.details
    return [
        "JobQueue._jobs is never pruned: after "
        f"{details['iterations']} iterations the daemon holds "
        f"{details['jobs_held']} jobs, and coalesced p50 moved from "
        f"{details['coalesced_p50_ms_first_third']:.2f} ms to "
        f"{details['coalesced_p50_ms_last_third']:.2f} ms between the first "
        "and last third of the run.",
        f"`repro submit --wait` polls every {interval} s by default, so the "
        "latency a CLI user sees is quantized far above the 0.5-"
        f"{POLL_INTERVAL_S * 1000:.0f} ms polls this benchmark uses.",
    ]


def measure(args: argparse.Namespace, probe: Probe) -> Dict[str, Any]:
    workload = args.workload
    work = Path(args.work)
    quick = QUICK_OPS if args.quick else None
    if workload == "batch-grid" and quick:
        quick = 1
    seconds = args.seconds / 2 if args.trace else args.seconds
    phase = run_phase(
        workload, args.seed, Budget(seconds, quick), work / "untraced", None, probe
    )
    result: Dict[str, Any] = {
        "workload": workload,
        "seed": args.seed,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "wrong": phase.wrong,
        "digest": phase.digest(),
        "end_to_end": phase.end_to_end(),
        "details": dict(phase.details, **phase.wall_details(), records=phase.records),
    }
    if not args.trace:
        return result

    from tracing import Tracer, chrome_trace, install, layer_metrics, merge_dumps

    tracer = Tracer()
    only = ("repro.service.client",) if workload == "service-mix" else None
    installation = install(tracer, only=only)
    try:
        traced = run_phase(
            workload, args.seed, Budget(seconds, quick), work / "traced", tracer, probe
        )
    finally:
        installation.restore()
    own = tracer.dump()
    dumps = [own] + ([traced.daemon_dump] if traced.daemon_dump else [])
    merged = merge_dumps(dumps)
    extras = dict(traced.extras)
    extras.update(
        {name: phase.extras[name] for name in UNTRACED_EXTRAS if name in phase.extras}
    )
    # Same inputs in both halves, so compare the common prefix of ops.
    common = min(len(phase.frames), len(traced.frames))
    extras["tracing.overhead_frac"] = (
        sum(traced.frames[:common]) / sum(phase.frames[:common]) - 1.0
    )
    if workload == "service-mix":
        round_trips = sum(
            own["stats"].get(f"service.client.{call}", [0, 0.0, 0.0])[1]
            for call in ("submit", "poll", "fetch")
        )
        handling = sum(
            traced.extras[f"service.server.{endpoint}_s"]
            for endpoint in ("post_jobs", "get_job", "get_result")
        )
        extras["service.server.http_overhead_s"] = (
            round_trips / max(1, traced.attempted) - handling
        )
    result["attempted"] += traced.attempted
    result["failed"] += traced.failed
    result["wrong"] += traced.wrong
    result["per_layer"] = layer_metrics(
        merged["stats"], merged["distinct"], traced.attempted, extras
    )
    result["details"]["traced_ops"] = traced.attempted
    if workload == "service-mix":
        result["details"]["findings"] = _findings(phase)
    processes = [(f"benchmark {workload}", own["spans"])]
    if traced.daemon_dump:
        processes.append(("repro serve", traced.daemon_dump["spans"]))
    payload = chrome_trace(processes, metadata={"workload": workload, "seed": args.seed})
    trace_path = Path(args.chrome_trace).resolve()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    checkout = SRC.parent
    result["details"]["chrome_trace"] = str(
        trace_path.relative_to(checkout)
        if trace_path.is_relative_to(checkout)
        else trace_path
    )
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument(
        "--ready", action="store_true",
        help="import what the workload needs, print 'ready' and exit",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--work", help="scratch directory for this run")
    parser.add_argument("--result", help="write the result JSON here")
    parser.add_argument("--chrome-trace", help="(--trace 1) Chrome trace output")
    args = parser.parse_args(argv)
    if args.ready:
        prepare(args.workload)
        print("ready", flush=True)
        return 0
    with Probe() as probe:
        result = measure(args, probe)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, allow_nan=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
