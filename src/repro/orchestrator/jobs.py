"""Declarative job specifications with stable content hashes.

A :class:`JobSpec` names one ``(algorithm, family, n, seed)`` cell of an
experiment grid (plus optional sparse-ID range and engine options).  Its
:attr:`JobSpec.key` is a SHA-256 over the canonical JSON payload, so the
same cell always hashes identically across processes and sessions — the
content address used by the result cache and the run store.

:func:`run_cell` is the single place a spec becomes a run: it builds the
graph, attaches monitors and the fault channel, and runs (or diagnoses)
the algorithm.  :func:`execute_job` turns that cell into the flat metrics
record every consumer (campaign reports, Table 1, the batch CLI) shares;
it is a module-level function so worker processes can pickle it.  The
CLI's ``run``, ``check`` and ``trace`` render the cell itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.problems import problem_bundle, resolve_problem
from repro.sim.capabilities import resolve_engine
from repro.sim.transport import parse_channel_spec, validate_channel_spec

from .registry import graph_factory, resolve_family

if TYPE_CHECKING:
    from repro.core import RunResult
    from repro.graphs import MSTDiagnosis, WeightedGraph
    from repro.invariants import MonitorSet

#: Awake-event cap applied to fault-injected jobs that don't set their own:
#: a protocol livelocked by message loss must terminate as ``hung`` instead
#: of spinning forever.  Far above any terminating run at orchestrator
#: scales (n=256 randomized MST uses ~6e4 awake events).
FAULT_MAX_AWAKE_EVENTS = 2_000_000

#: Record fields measured by a run; ``None`` when a faulted run crashed
#: or hung, so every record keeps one shape.
RUN_FIELDS = (
    "phases", "max_awake", "mean_awake", "rounds", "awake_round_product",
    "messages", "bits",
)


def canonical_json(payload: Any) -> str:
    """Serialise ``payload`` deterministically (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One (algorithm, family, n, seed) cell of an experiment grid."""

    algorithm: str
    family: str
    n: int
    seed: int
    id_range: Optional[int] = None
    #: Extra keyword arguments for the runner (e.g. ``termination``,
    #: ``coloring``), stored as a sorted tuple so the spec stays hashable.
    options: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)
    #: Which problem bundle resolves the algorithm (``repro.problems``).
    #: The default problem is omitted from :meth:`payload`, so MST-only
    #: specs hash identically to before the problem axis existed.
    problem: str = "mst"

    @classmethod
    def create(
        cls,
        algorithm: str,
        family: str,
        n: int,
        seed: int,
        id_range: Optional[int] = None,
        options: Optional[Mapping[str, Any]] = None,
        problem: Optional[str] = None,
    ) -> "JobSpec":
        """Build a validated spec; alias names resolve to canonical ones.

        Raises ``ValueError`` for an option the algorithm's runner does
        not accept (:meth:`repro.problems.ProblemBundle.check_options`).
        """
        problem = resolve_problem(problem)
        bundle = problem_bundle(problem)
        algorithm = bundle.resolve_algorithm(algorithm)
        options = dict(options or {})
        bundle.check_options(algorithm, options)
        return cls(
            algorithm=algorithm,
            family=resolve_family(family),
            n=int(n),
            seed=int(seed),
            id_range=None if id_range is None else int(id_range),
            options=tuple(sorted(options.items())),
            problem=problem,
        )

    def payload(self) -> Dict[str, Any]:
        """The hashable content of this spec, as plain JSON types.

        The ``problem`` key appears only off the default, keeping MST
        hashes (and therefore caches and stores) byte-stable.
        """
        payload = {
            "algorithm": self.algorithm,
            "family": self.family,
            "n": self.n,
            "seed": self.seed,
            "id_range": self.id_range,
            "options": {key: value for key, value in self.options},
        }
        if self.problem != "mst":
            payload["problem"] = self.problem
        return payload

    @property
    def key(self) -> str:
        """Stable content hash identifying this job."""
        return hashlib.sha256(canonical_json(self.payload()).encode()).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return self.payload()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobSpec":
        return cls.create(
            payload["algorithm"],
            payload["family"],
            payload["n"],
            payload["seed"],
            id_range=payload.get("id_range"),
            options=payload.get("options") or {},
            problem=payload.get("problem"),
        )

    def label(self) -> str:
        """Short human-readable identifier for progress lines."""
        return f"{self.algorithm}/{self.family}/n={self.n}/seed={self.seed}"


def expand_grid(
    algorithms: Sequence[str],
    families: Sequence[str],
    sizes: Sequence[int],
    seeds: Sequence[int],
    id_range_factor: Optional[int] = None,
    options: Optional[Mapping[str, Any]] = None,
    faults: Optional[Sequence[Optional[str]]] = None,
    monitors: Optional[str] = None,
    engine: Optional[str] = None,
    problem: Optional[str] = None,
) -> List[JobSpec]:
    """Expand a grid into one :class:`JobSpec` per cell.

    Iteration order is family, size, seed, algorithm — the row order
    of every committed grid artifact.  ``faults`` adds a
    channel-spec axis (innermost): each entry is a
    :func:`repro.sim.transport.parse_channel_spec` string; the perfect
    channel (``None``/``"perfect"``) stores no ``faults`` option, so
    fault-free specs hash identically to pre-transport grids and their
    cached results stay valid.  ``monitors`` attaches runtime invariant
    monitors (a :func:`repro.invariants.resolve_monitor_spec` string) to
    every cell; as with ``faults``, the detached default stores nothing,
    so unmonitored specs keep their historical hashes.  ``engine``
    selects the simulation backend for every cell (see
    :func:`repro.core.run_randomized_mst`); the default coroutine engine
    stores nothing — only ``engine="array"`` enters the options — so
    default grids keep their historical hashes and warm caches.
    ``problem`` selects the bundle every cell's algorithm resolves in
    (``"mst"`` when omitted, following the same stability convention).
    """
    for axis_name, axis in (
        ("algorithms", algorithms),
        ("families", families),
        ("sizes", sizes),
        ("seeds", seeds),
    ):
        if len(axis) == 0:
            raise ValueError(
                f"empty grid axis {axis_name!r}: every axis needs a "
                "non-empty list (an empty axis would silently expand to "
                "zero jobs)"
            )
    if faults is not None and len(faults) == 0:
        raise ValueError(
            "empty grid axis 'faults': pass None for the perfect channel "
            "or a non-empty list of channel specs"
        )
    problem = resolve_problem(problem)
    bundle = problem_bundle(problem)
    canonical = [bundle.resolve_algorithm(name) for name in algorithms]
    resolved_families = [resolve_family(name) for name in families]
    fault_axis = [validate_channel_spec(spec) for spec in (faults or [None])]
    engine = resolve_engine(engine)
    if monitors is not None:
        from repro.invariants import resolve_monitor_spec

        monitors = resolve_monitor_spec(monitors)
    specs: List[JobSpec] = []
    for family, n, seed in itertools.product(resolved_families, sizes, seeds):
        id_range = None if id_range_factor is None else id_range_factor * n
        for algorithm in canonical:
            for fault_spec in fault_axis:
                cell_options = dict(options or {})
                if fault_spec is not None:
                    cell_options["faults"] = fault_spec
                if monitors is not None:
                    cell_options["monitors"] = monitors
                if engine != "coroutine":
                    cell_options["engine"] = engine
                specs.append(
                    JobSpec.create(
                        algorithm,
                        family,
                        n,
                        seed,
                        id_range=id_range,
                        options=cell_options,
                        problem=problem,
                    )
                )
    return specs


#: Keys a JSON grid payload may carry.  ``batch --spec`` files and the
#: service layer's ``POST /jobs`` bodies share this schema, so a grid is
#: submittable identically from a file, the CLI, or over HTTP.
GRID_PAYLOAD_KEYS = (
    "algorithms",
    "families",
    "sizes",
    "seeds",
    "id_range_factor",
    "options",
    "faults",
    "monitors",
    "engine",
    "problem",
)


def grid_from_payload(payload: Mapping[str, Any]) -> List[JobSpec]:
    """Expand a JSON grid payload into specs (the ``batch --spec`` schema).

    ``seeds`` may be an integer N (meaning seeds ``0..N-1``) or an
    explicit list.  Unknown keys raise ``ValueError`` so a typo'd axis
    never silently shrinks a grid; so do empty required axes and
    malformed ``faults``/``monitors`` specs (via :func:`expand_grid`).
    """
    unknown = set(payload) - set(GRID_PAYLOAD_KEYS)
    if unknown:
        raise ValueError(f"unknown grid keys: {sorted(unknown)}")
    algorithms = list(payload.get("algorithms") or [])
    families = list(payload.get("families") or [])
    sizes = [int(n) for n in payload.get("sizes") or []]
    for axis_name, axis in (
        ("algorithms", algorithms), ("families", families), ("sizes", sizes)
    ):
        if not axis:
            raise ValueError(
                f"empty grid axis {axis_name!r}: the grid needs a "
                f"non-empty {axis_name} list"
            )
    seeds = payload.get("seeds", 1)
    if isinstance(seeds, bool):
        raise ValueError(f"seeds must be an int or a list, got {seeds!r}")
    if isinstance(seeds, int):
        seed_list = list(range(seeds))
    else:
        seed_list = [int(seed) for seed in seeds]
    if not seed_list:
        raise ValueError(
            "empty grid axis 'seeds': the grid needs at least one seed"
        )
    id_range_factor = payload.get("id_range_factor")
    return expand_grid(
        algorithms,
        families,
        sizes,
        seed_list,
        id_range_factor=(
            None if id_range_factor is None else int(id_range_factor)
        ),
        options=payload.get("options") or None,
        faults=payload.get("faults") or None,
        monitors=payload.get("monitors") or None,
        engine=payload.get("engine") or None,
        problem=payload.get("problem") or None,
    )


def grid_key(specs: Sequence[JobSpec]) -> str:
    """Content hash of a whole grid (used to name default store files)."""
    return hashlib.sha256(
        canonical_json([spec.key for spec in specs]).encode()
    ).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One executed cell, as :func:`run_cell` leaves it.

    ``diagnosis`` is set when the run was classified (a ``faults``
    option, or ``diagnose=True``); ``result`` is ``None`` only when such
    a run crashed or hung.  ``monitor_set`` is the attached
    :class:`repro.invariants.MonitorSet`, if the spec asked for one.
    """

    spec: JobSpec
    graph: WeightedGraph
    result: Optional[RunResult]
    diagnosis: Optional[MSTDiagnosis] = None
    monitor_set: Optional[MonitorSet] = None

    @property
    def faults(self) -> Optional[str]:
        """The spec's channel spec; ``None`` on the perfect channel."""
        return dict(self.spec.options).get("faults")


def run_cell(spec: JobSpec, *, diagnose: bool = False, **sim_kwargs: Any) -> Cell:
    """Build and run one cell: graph, monitor set, fault channel, run.

    Grid, campaign and service cells (via :func:`execute_job`) and the
    CLI's ``run``, ``check`` and ``trace`` all go through here.
    ``sim_kwargs`` (``trace=True``, ``observe=True``) reach the runner
    next to the spec's options and never enter the spec.  A ``faults``
    option (a :mod:`repro.sim.transport` channel spec) runs under that
    channel, capped at :data:`FAULT_MAX_AWAKE_EVENTS` awake events
    unless the spec sets its own.  Such a run, and any run with
    ``diagnose=True``, is classified by
    :func:`repro.graphs.verify_or_diagnose`; any other run's exceptions
    propagate.
    """
    graph = graph_factory(spec.family)(spec.n, spec.seed, spec.id_range)
    runner = problem_bundle(spec.problem).runner(spec.algorithm)
    options = dict(spec.options)
    faults = options.pop("faults", None)
    # Built fresh inside the worker — MonitorSet instances hold run
    # state and are not meant to cross process boundaries.
    from repro.invariants import build_monitor_set

    monitor_set = build_monitor_set(options.pop("monitors", None), problem=spec.problem)
    if monitor_set is not None:
        options["monitors"] = monitor_set
    options.update(sim_kwargs)
    if faults is not None:
        options["channel"] = parse_channel_spec(faults)
        options.setdefault("max_awake_events", FAULT_MAX_AWAKE_EVENTS)
    elif not diagnose:
        result = runner(graph, spec.seed, **options)
        return Cell(spec, graph, result, monitor_set=monitor_set)

    from repro.graphs import verify_or_diagnose

    diagnosis = verify_or_diagnose(
        graph, lambda: runner(graph, spec.seed, **options), monitors=monitor_set
    )
    return Cell(spec, graph, diagnosis.result, diagnosis, monitor_set)


def execute_job(spec: JobSpec) -> Dict[str, Any]:
    """Run one job and return its flat, deterministic metrics record.

    Store records, cache entries and campaign reports all carry this
    one record as ``metrics``, so they are interchangeable.

    A faulted cell's record additionally carries ``faults``/``outcome``/
    ``error`` plus the fault counters; runs that crashed or hung keep the
    record shape with ``None`` metrics fields.  Fault-free specs produce
    records identical to before the transport layer existed.
    """
    cell = run_cell(spec)
    graph, result, diagnosis = cell.graph, cell.result, cell.diagnosis
    record: Dict[str, Any] = {
        **({} if spec.problem == "mst" else {"problem": spec.problem}),
        "algorithm": spec.algorithm,
        "family": spec.family,
        "n": graph.n,
        "m": graph.m,
        "max_id": graph.max_id,
        "seed": spec.seed,
    }
    if diagnosis is None:
        record["correct"] = result.is_correct(graph)
    else:
        record.update(
            faults=cell.faults,
            outcome=diagnosis.outcome,
            error=diagnosis.error,
            correct=diagnosis.outcome == "correct",
        )
        if diagnosis.missing_nodes:
            record["missing_nodes"] = list(diagnosis.missing_nodes)
        if diagnosis.crashed_nodes:
            record["crashed_nodes"] = list(diagnosis.crashed_nodes)
    if cell.monitor_set is not None:
        report = cell.monitor_set.finalize()
        record.update(
            monitors=dict(spec.options)["monitors"],
            monitor_checks=report.checks_run,
            violations=len(report),
            first_invariant=report.first_invariant,
        )
    if result is None:
        record.update(dict.fromkeys(RUN_FIELDS))
        return record
    metrics = result.metrics
    record.update(
        phases=result.phases,
        max_awake=metrics.max_awake,
        mean_awake=round(metrics.mean_awake, 3),
        rounds=metrics.rounds,
        awake_round_product=metrics.awake_round_product,
        messages=metrics.messages_delivered,
        bits=metrics.total_bits,
    )
    if diagnosis is not None:
        record.update(metrics.fault_summary())
    return record
