"""The benchmark registry: what gets timed, at which tier, with what inputs.

Every benchmark is deterministic end to end — fixed graph seeds, fixed
protocol seeds, fixed payload corpora — so two runs on the same machine
and interpreter time the *same* computation and their medians are directly
comparable.  Benchmarks build their inputs (graphs, corpora) once in
``make()``; only the returned thunk is timed.

Tiers
-----
``micro``
    Isolated hot paths: CONGEST bit accounting over a realistic payload
    corpus, and the engine round loop driven by a payload-light heartbeat
    protocol (so engine overhead, not bit accounting, dominates).
``e2e``
    Full MST runs through the public runners at fixed seeds — the number
    that actually bounds how large an ``n`` the experiment sweeps reach.
``fault``
    Runs under a fault-injecting channel model (:mod:`repro.sim.transport`):
    the round loop's per-message channel calls and the delayed-message
    heap.  Guards the robustness workload the same way ``micro``/``e2e``
    guard the perfect channel.
``monitors``
    Full MST runs with every invariant monitor attached
    (:mod:`repro.invariants`): probe buffering, group checking, and span
    forwarding on top of the round loop's observer feeds.  Compared
    against the ``e2e`` twins, the ratio *is* the monitoring overhead.
``mis``
    Full ``Sleeping-MIS`` runs (the second problem bundle,
    :mod:`repro.problems.mis`), bare and monitored.  Not smoke — the
    committed ``BENCH_engine.json`` baselines predate the problem
    registry and pin the smoke suite; CI times this tier in its own
    step of the ``bench-smoke`` job (``--suite mis``).
``scale``
    Large-``n`` MST runs pitting the vectorized array backend
    (``engine="array"``, :mod:`repro.core.array_ops`) against the
    coroutine engine on the same graph.  The
    ``coroutine_scale_n4096`` / ``array_scale_n4096`` pair measures the
    backend speedup (the acceptance gate asserts >= 20x on the committed
    baseline); ``array_scale_n16384`` documents that the array backend
    reaches n = 16384 in CI-smoke time.  The grid family keeps the
    coroutine twin affordable (phases grow with diameter, not edge count,
    so ``gnp`` at this ``n`` would take minutes per sample).

The ``smoke`` flag marks the subset cheap enough for CI on every push.
The ``scale`` tier is deliberately *not* smoke: the ``bench-smoke`` CI
job runs it as a separate ``--suite scale`` step at fewer repeats, so
the smoke report stays comparable with the committed baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.sim import Awake


@dataclass(frozen=True)
class Benchmark:
    """One registered benchmark: metadata plus a thunk factory."""

    name: str
    tier: str  # "micro" | "e2e" | "fault" | "monitors" | "mis" | "scale"
    smoke: bool
    params: Mapping[str, Any]
    make: Callable[[], Callable[[], Any]] = field(repr=False)

    def describe(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "tier": self.tier,
            "smoke": self.smoke,
            "params": dict(self.params),
        }


# ----------------------------------------------------------------------
# Micro: CONGEST bit accounting
# ----------------------------------------------------------------------

def payload_corpus(count: int = 512, seed: int = 1234) -> List[Any]:
    """A fixed, realistic mix of protocol payload shapes.

    Mirrors what the MST protocols actually send: short string tags
    followed by a few bounded integers, occasional booleans, ``inf``
    sentinels (Upcast-Min), bare integers, and a sprinkling of nested
    tuples to exercise the uncached recursive path.
    """
    rng = Random(seed)
    corpus: List[Any] = []
    for _ in range(count):
        kind = rng.randrange(6)
        if kind == 0:
            corpus.append(
                (
                    "mwoe",
                    rng.randrange(10**6),
                    rng.randrange(4096),
                    rng.randrange(16),
                )
            )
        elif kind == 1:
            corpus.append(("hb", rng.randrange(10**4), bool(rng.randrange(2))))
        elif kind == 2:
            corpus.append(
                (
                    "up",
                    rng.randrange(512),
                    math.inf if rng.randrange(2) else rng.randrange(10**6),
                )
            )
        elif kind == 3:
            corpus.append(rng.randrange(10**9))
        elif kind == 4:
            corpus.append(("id", "x" * (1 + rng.randrange(8)), rng.randrange(10**6)))
        else:
            corpus.append((("nest", rng.randrange(64)), rng.randrange(10**6), None))
    return corpus


def _make_payload_bits(loops: int = 30) -> Callable[[], Any]:
    from repro.sim.congest import CongestPolicy

    corpus = payload_corpus()

    def run() -> None:
        # A fresh policy per sample: the first corpus pass is cold, the
        # remaining ``loops - 1`` passes measure the steady state the
        # engine sees (repetitive shapes, warm accounting).
        policy = CongestPolicy(10**6, strict=False)
        check = policy.check
        for _ in range(loops):
            for payload in corpus:
                check(payload)

    return run


# ----------------------------------------------------------------------
# Micro: engine round loop
# ----------------------------------------------------------------------

def _heartbeat_protocol(ctx: Any):
    """Payload-light staggered heartbeats: stresses the round loop itself."""
    node_id = ctx.node_id
    offset = node_id % 3
    sends = {port: ("hb", node_id) for port in ctx.ports}
    for i in range(1, 61):
        yield Awake(3 * i + offset, sends)
    return None


def _make_engine_loop(n: int = 128) -> Callable[[], Any]:
    from repro.graphs import ring_graph
    from repro.sim import simulate

    graph = ring_graph(n, seed=1)

    def run() -> None:
        simulate(graph, _heartbeat_protocol, seed=0)

    return run


# ----------------------------------------------------------------------
# Fault tier: the round loop under channel models
# ----------------------------------------------------------------------

def _make_engine_fault_drop(n: int = 128, p: float = 0.05) -> Callable[[], Any]:
    from repro.graphs import ring_graph
    from repro.sim import DropChannel, simulate

    # Heartbeats never read their inbox, so they tolerate any loss rate:
    # this times the round loop + channel calls, not protocol recovery.
    graph = ring_graph(n, seed=1)
    channel = DropChannel(p)

    def run() -> None:
        simulate(graph, _heartbeat_protocol, seed=0, channel=channel)

    return run


def _make_mst_fault_dup(n: int, p: float = 0.1) -> Callable[[], Any]:
    from repro.core import run_randomized_mst
    from repro.orchestrator import GRAPH_FAMILIES
    from repro.sim import DuplicateChannel

    # Duplication is the fault the MST protocols survive (stale copies
    # mostly arrive while receivers sleep), so the run completes and the
    # delayed-message heap gets a real workout.
    graph = GRAPH_FAMILIES["gnp"](n, 0, None)
    channel = DuplicateChannel(p)

    def run() -> None:
        run_randomized_mst(graph, seed=0, channel=channel)

    return run


# ----------------------------------------------------------------------
# Monitors tier: MST runs with every invariant monitor attached
# ----------------------------------------------------------------------

def _make_mst_monitored(algorithm: str, n: int) -> Callable[[], Any]:
    from repro.core import run_deterministic_mst, run_randomized_mst
    from repro.invariants import build_monitor_set
    from repro.orchestrator import GRAPH_FAMILIES

    graph = GRAPH_FAMILIES["gnp"](n, 0, None)
    runner = (
        run_randomized_mst if algorithm == "randomized" else run_deterministic_mst
    )

    def run() -> None:
        # A fresh MonitorSet per sample: attach() resets state, but the
        # timed work must include building the checker wiring the way a
        # monitored orchestrator job does.
        runner(graph, seed=0, monitors=build_monitor_set("all"))

    return run


# ----------------------------------------------------------------------
# End to end: MST runs at fixed seeds
# ----------------------------------------------------------------------

def _make_mst_randomized(n: int) -> Callable[[], Any]:
    from repro.core import run_randomized_mst
    from repro.orchestrator import GRAPH_FAMILIES

    graph = GRAPH_FAMILIES["gnp"](n, 0, None)

    def run() -> None:
        run_randomized_mst(graph, seed=0)

    return run


def _make_mst_deterministic(n: int) -> Callable[[], Any]:
    from repro.core import run_deterministic_mst
    from repro.orchestrator import GRAPH_FAMILIES

    graph = GRAPH_FAMILIES["gnp"](n, 0, None)

    def run() -> None:
        run_deterministic_mst(graph)

    return run


# ----------------------------------------------------------------------
# MIS tier: the second problem bundle (Sleeping-MIS)
# ----------------------------------------------------------------------

def _make_mis_sleeping(n: int, monitored: bool = False) -> Callable[[], Any]:
    from repro.invariants import build_monitor_set
    from repro.orchestrator import GRAPH_FAMILIES
    from repro.problems import run_sleeping_mis

    graph = GRAPH_FAMILIES["gnp"](n, 0, None)

    def run() -> None:
        monitors = build_monitor_set("all", problem="mis") if monitored else None
        run_sleeping_mis(graph, seed=0, monitors=monitors)

    return run


# ----------------------------------------------------------------------
# Scale tier: array vs coroutine backend at large n
# ----------------------------------------------------------------------

def _make_mst_scale(n: int, engine: str) -> Callable[[], Any]:
    from repro.core import run_randomized_mst
    from repro.orchestrator import GRAPH_FAMILIES

    # Both engines run the *same* graph and seed, so the pair of medians
    # is a clean backend ratio: identical rounds, identical messages,
    # identical metrics (``pytest --slow`` asserts byte equality on the
    # n=4096 graph, seed 0, in tests/sim/test_array_engine.py; CI's
    # bench-smoke job runs it right after timing this tier).
    graph = GRAPH_FAMILIES["grid"](n, 0, None)

    def run() -> None:
        run_randomized_mst(graph, seed=0, engine=engine)

    return run


#: The registry, in execution order (cheap first).
BENCHMARKS: Tuple[Benchmark, ...] = (
    Benchmark(
        name="payload_bits_micro",
        tier="micro",
        smoke=True,
        params={"corpus": 512, "loops": 30, "seed": 1234},
        make=_make_payload_bits,
    ),
    Benchmark(
        name="engine_round_loop",
        tier="micro",
        smoke=True,
        params={"family": "ring", "n": 128, "heartbeats": 60, "seed": 1},
        make=_make_engine_loop,
    ),
    Benchmark(
        name="mst_randomized_e2e_n64",
        tier="e2e",
        smoke=True,
        params={"family": "gnp", "n": 64, "seed": 0},
        make=lambda: _make_mst_randomized(64),
    ),
    Benchmark(
        name="mst_deterministic_e2e_n64",
        tier="e2e",
        smoke=True,
        params={"family": "gnp", "n": 64, "seed": 0},
        make=lambda: _make_mst_deterministic(64),
    ),
    Benchmark(
        name="mst_randomized_e2e_n256",
        tier="e2e",
        smoke=True,
        params={"family": "gnp", "n": 256, "seed": 0},
        make=lambda: _make_mst_randomized(256),
    ),
    Benchmark(
        name="engine_fault_drop_loop",
        tier="fault",
        smoke=True,
        params={"family": "ring", "n": 128, "drop": 0.05, "seed": 1},
        make=_make_engine_fault_drop,
    ),
    Benchmark(
        name="mst_randomized_fault_dup_n64",
        tier="fault",
        smoke=True,
        params={"family": "gnp", "n": 64, "dup": 0.1, "seed": 0},
        make=lambda: _make_mst_fault_dup(64),
    ),
    Benchmark(
        name="mst_randomized_monitored_n64",
        tier="monitors",
        smoke=True,
        params={"family": "gnp", "n": 64, "seed": 0, "monitors": "all"},
        make=lambda: _make_mst_monitored("randomized", 64),
    ),
    Benchmark(
        name="mst_deterministic_monitored_n64",
        tier="monitors",
        smoke=True,
        params={"family": "gnp", "n": 64, "seed": 0, "monitors": "all"},
        make=lambda: _make_mst_monitored("deterministic", 64),
    ),
    # MIS tier is deliberately not smoke (like scale): the per-push bench
    # gate compares against BENCH_engine.json baselines recorded before
    # the problem registry existed, and a smoke-flagged addition would
    # change the smoke suite those baselines pin.  CI times it with
    # ``--suite mis`` in its own step of the bench-smoke job.
    Benchmark(
        name="mis_sleeping_e2e_n64",
        tier="mis",
        smoke=False,
        params={"problem": "mis", "family": "gnp", "n": 64, "seed": 0},
        make=lambda: _make_mis_sleeping(64),
    ),
    Benchmark(
        name="mis_sleeping_e2e_n256",
        tier="mis",
        smoke=False,
        params={"problem": "mis", "family": "gnp", "n": 256, "seed": 0},
        make=lambda: _make_mis_sleeping(256),
    ),
    Benchmark(
        name="mis_sleeping_monitored_n64",
        tier="mis",
        smoke=False,
        params={
            "problem": "mis",
            "family": "gnp",
            "n": 64,
            "seed": 0,
            "monitors": "all",
        },
        make=lambda: _make_mis_sleeping(64, monitored=True),
    ),
    Benchmark(
        name="mst_randomized_array_scale_n4096",
        tier="scale",
        smoke=False,
        params={"family": "grid", "n": 4096, "seed": 0, "engine": "array"},
        make=lambda: _make_mst_scale(4096, "array"),
    ),
    Benchmark(
        name="mst_randomized_array_scale_n16384",
        tier="scale",
        smoke=False,
        params={"family": "grid", "n": 16384, "seed": 0, "engine": "array"},
        make=lambda: _make_mst_scale(16384, "array"),
    ),
    Benchmark(
        name="mst_randomized_coroutine_scale_n4096",
        tier="scale",
        smoke=False,
        params={"family": "grid", "n": 4096, "seed": 0, "engine": "coroutine"},
        make=lambda: _make_mst_scale(4096, "coroutine"),
    ),
)

#: The end-to-end benchmark at the largest smoke ``n`` — the headline
#: number for ``baseline_comparison`` (see the acceptance criteria).
HEADLINE_BENCHMARK = "mst_randomized_e2e_n256"


def get_benchmark(name: str) -> Benchmark:
    for benchmark in BENCHMARKS:
        if benchmark.name == name:
            return benchmark
    known = ", ".join(b.name for b in BENCHMARKS)
    raise KeyError(f"unknown benchmark {name!r}; known: {known}")


def select_benchmarks(
    suite: str = "smoke", names: Sequence[str] = ()
) -> List[Benchmark]:
    """Resolve a suite name (or explicit benchmark names) to benchmarks.

    ``names`` wins when non-empty; otherwise ``suite`` is one of
    ``smoke`` (CI subset), ``micro``, ``e2e``, ``fault``, ``monitors``,
    ``mis``, ``scale``, or ``full``.
    """
    if names:
        return [get_benchmark(name) for name in names]
    if suite == "full":
        return list(BENCHMARKS)
    if suite == "smoke":
        return [b for b in BENCHMARKS if b.smoke]
    if suite in ("micro", "e2e", "fault", "monitors", "mis", "scale"):
        return [b for b in BENCHMARKS if b.tier == suite]
    raise ValueError(
        f"unknown suite {suite!r}; use smoke, micro, e2e, fault, monitors, "
        "mis, scale, or full"
    )
