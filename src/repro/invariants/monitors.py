"""Runtime protocol-invariant monitors and their registry.

A :class:`MonitorSet` attaches to a simulation
(``SleepingSimulator(monitors=...)`` or any runner forwarding
``monitors=``) and checks the paper's per-phase lemmas *while the run
executes*:

* protocol code emits tiny state snapshots at named **probe points**
  (``ctx.probe("phase_end", ...)``); the set buffers them per
  ``(point, phase)`` and fires each global checker the moment all ``n``
  nodes have reported — the block-aligned schedules guarantee phase ``p``
  probes all precede phase ``p+1`` probes, so violations stream out in
  causal order and the *first* one survives even if the run later crashes
  or hangs;
* the obs layer forwards every **closed span** (per-block awake budgets)
  and the engine calls :meth:`MonitorSet.finalize` with the end-of-run
  metrics (CONGEST budget).

Monitors are observers in the strict sense: they never touch protocol
randomness, messages, or schedules, so a monitored run is byte-identical
to a detached one (``monitors=None``, the default), and the detached run
to the golden transport tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .checks import (
    BLOCK_AWAKE_BUDGETS,
    DEFAULT_BLOCK_AWAKE_BUDGET,
    check_block_awake,
    check_coloring_legal,
    check_congest_budget,
    check_fldt_wellformed,
    check_mis_independence,
    check_mis_maximality,
    check_moe_sparsification,
    check_mst_subforest,
    check_star_merge,
)
from .report import InvariantViolation, Violation, ViolationReport


class MonitorView:
    """What monitors may know about the run: the graph, nothing mutable."""

    def __init__(self, graph: Any, node_ids: Sequence[int], seed: int = 0):
        self.graph = graph
        self.node_ids = tuple(node_ids)
        self.n = len(self.node_ids)
        self.seed = seed
        self._reference_mst: Optional[frozenset] = None
        self._reference_tried = False

    @property
    def reference_mst(self) -> Optional[frozenset]:
        """MST edge weights of the underlying graph, or ``None`` when the
        graph object cannot provide them (computed lazily, once)."""
        if not self._reference_tried:
            self._reference_tried = True
            try:
                from repro.graphs import mst_weight_set

                self._reference_mst = frozenset(mst_weight_set(self.graph))
            except Exception:  # noqa: BLE001 - non-WeightedGraph duck types
                self._reference_mst = None
        return self._reference_mst


@dataclass
class FinalizeContext:
    """End-of-run evidence handed to :meth:`InvariantMonitor.finalize`."""

    view: MonitorView
    metrics: Any = None
    spans: Any = None
    results: Optional[Dict[int, Any]] = None
    congest_budget: int = 0
    #: Probe groups never completed (phase truncated by crash/hang).
    incomplete: Dict[Tuple[str, Optional[int]], Dict[int, Any]] = field(
        default_factory=dict
    )


class InvariantMonitor:
    """Base class: subscribe to probe points and/or span closures."""

    #: Registry name (kebab-case) — what reports and CLI flags use.
    name: str = ""
    #: Paper statement this monitor enforces.
    lemma: str = ""
    #: Probe points whose completed groups this monitor checks.
    points: Tuple[str, ...] = ()
    #: Whether :meth:`on_span_close` should be fed closed span records.
    wants_spans: bool = False

    def reset(self, view: MonitorView) -> None:
        """Called once per run before any probe arrives."""

    def check_group(
        self, point: str, phase: Optional[int], snapshots: Dict[int, Dict[str, Any]]
    ) -> Iterable[Violation]:
        return ()

    def on_span_close(self, record: Any) -> Iterable[Violation]:
        return ()

    def finalize(self, ctx: FinalizeContext) -> Iterable[Violation]:
        return ()


class FLDTMonitor(InvariantMonitor):
    name = "fldt-wellformed"
    lemma = "Section 2.1 (FLDT structure)"
    points = ("phase_end",)

    def reset(self, view: MonitorView) -> None:
        self._view = view

    def check_group(self, point, phase, snapshots):
        return check_fldt_wellformed(self._view.graph, phase, snapshots)


class MSTSubforestMonitor(InvariantMonitor):
    name = "mst-subforest"
    lemma = "Lemma 2 (phase-boundary forest is a subforest of the MST)"
    points = ("phase_end",)

    def reset(self, view: MonitorView) -> None:
        self._view = view

    def check_group(self, point, phase, snapshots):
        reference = self._view.reference_mst
        if reference is None:
            return ()
        return check_mst_subforest(reference, phase, snapshots)


class StarMergeMonitor(InvariantMonitor):
    name = "star-merge"
    lemma = "Section 2.2 (tails->heads merge stars)"
    points = ("merge_decision",)

    def check_group(self, point, phase, snapshots):
        return check_star_merge(phase, snapshots)


class MOESparsificationMonitor(InvariantMonitor):
    name = "moe-sparsification"
    lemma = "Section 2.3 step (i) (<=3 valid incoming MOEs)"
    points = ("moe_sparsify",)

    def check_group(self, point, phase, snapshots):
        return check_moe_sparsification(phase, snapshots)


class ColoringMonitor(InvariantMonitor):
    name = "coloring-legal"
    lemma = "Lemma 4 (legal 5-coloring of the degree-<=4 supergraph)"
    points = ("coloring",)

    def check_group(self, point, phase, snapshots):
        return check_coloring_legal(phase, snapshots)


class FragmentCountMonitor(InvariantMonitor):
    """Fragment-count contraction (Lemma 1 / the phase-budget arguments).

    The count never increases; in ``Randomized-MST`` it drops by exactly
    the number of merging (tails-and-valid) fragments; in
    ``Deterministic-MST`` every phase with >=2 fragments removes at least
    one Blue fragment.
    """

    name = "fragment-count-halving"
    lemma = "Lemma 1 (constant-factor fragment contraction per phase)"
    points = ("phase_end", "merge_decision", "coloring")

    def reset(self, view: MonitorView) -> None:
        self._last: Tuple[int, int] = (0, view.n)
        self._merged: Dict[Optional[int], int] = {}
        self._deterministic: set = set()

    def check_group(self, point, phase, snapshots):
        if point == "merge_decision":
            merging = {
                state["fragment"]
                for state in snapshots.values()
                if state.get("merging")
            }
            self._merged[phase] = len(merging)
            return ()
        if point == "coloring":
            self._deterministic.add(phase)
            return ()
        count = len({state["fragment"] for state in snapshots.values()})
        last_phase, last_count = self._last
        self._last = (phase if phase is not None else last_phase + 1, count)
        violations: List[Violation] = []
        if count > last_count:
            violations.append(
                Violation(
                    invariant=self.name,
                    lemma=self.lemma,
                    message=(
                        f"fragment count increased from {last_count} (phase "
                        f"{last_phase}) to {count}"
                    ),
                    phase=phase,
                )
            )
            return violations
        merged = self._merged.get(phase)
        if merged is not None and count != last_count - merged:
            violations.append(
                Violation(
                    invariant=self.name,
                    lemma=self.lemma,
                    message=(
                        f"{merged} fragment(s) merged but the count went "
                        f"{last_count} -> {count} (expected "
                        f"{last_count - merged})"
                    ),
                    phase=phase,
                )
            )
        if (
            phase in self._deterministic
            and last_count >= 2
            and count >= last_count
        ):
            violations.append(
                Violation(
                    invariant=self.name,
                    lemma=self.lemma,
                    message=(
                        f"deterministic phase with {last_count} fragments "
                        f"merged none (count still {count}); every phase "
                        f"with >=2 fragments removes a Blue fragment"
                    ),
                    phase=phase,
                )
            )
        return violations


class AwakeBudgetMonitor(InvariantMonitor):
    """Per-block awake budgets (Theorem 1 / Lemma 7: O(1) awake/block)."""

    name = "block-awake-budget"
    lemma = "Theorem 1 / Lemma 7 (O(1) awake rounds per block)"
    wants_spans = True

    def __init__(self, budgets: Optional[Dict[str, int]] = None):
        self.budgets = dict(BLOCK_AWAKE_BUDGETS if budgets is None else budgets)
        # No span within the smallest budget can exceed its own, so most
        # closed spans are settled by one comparison.  The budgets are
        # fixed at construction.
        self._floor = min((DEFAULT_BLOCK_AWAKE_BUDGET, *self.budgets.values()))

    def on_span_close(self, record):
        if record.awake <= self._floor:
            return ()
        return check_block_awake(record, self.budgets)


class CongestBudgetMonitor(InvariantMonitor):
    name = "congest-bit-budget"
    lemma = "Section 1.1 (CONGEST: O(log n)-bit messages)"

    def finalize(self, ctx: FinalizeContext):
        if ctx.metrics is None:
            return ()
        return check_congest_budget(ctx.metrics, ctx.congest_budget)


class MISIndependenceMonitor(InvariantMonitor):
    """No two adjacent nodes both join the MIS."""

    name = "mis-independence"
    lemma = "MIS independence (arXiv 2204.08359, Lemma 1)"
    points = ("mis_decided",)

    def reset(self, view: MonitorView) -> None:
        self._view = view

    def check_group(self, point, phase, snapshots):
        return check_mis_independence(self._view.graph, phase, snapshots)


class MISMaximalityMonitor(InvariantMonitor):
    """Every node out of the MIS is dominated by an MIS neighbour."""

    name = "mis-no-uncovered-node"
    lemma = "MIS maximality (arXiv 2204.08359, Lemma 2)"
    points = ("mis_decided",)

    def reset(self, view: MonitorView) -> None:
        self._view = view

    def check_group(self, point, phase, snapshots):
        return check_mis_maximality(self._view.graph, phase, snapshots)


#: Registry order is also the finalize/check ordering for same-instant hits.
MONITOR_REGISTRY: Dict[str, type] = {
    monitor.name: monitor
    for monitor in (
        FLDTMonitor,
        MSTSubforestMonitor,
        StarMergeMonitor,
        MOESparsificationMonitor,
        ColoringMonitor,
        FragmentCountMonitor,
        AwakeBudgetMonitor,
        CongestBudgetMonitor,
        MISIndependenceMonitor,
        MISMaximalityMonitor,
    )
}

#: The MST monitor names — the original, stable public tuple.  Kept as the
#: first eight registry entries (and the :class:`MonitorSet` default) for
#: backwards compatibility; per-problem expansion of ``--monitors all``
#: goes through :data:`PROBLEM_MONITORS` instead.
MONITOR_NAMES: Tuple[str, ...] = tuple(MONITOR_REGISTRY)[:8]

#: What ``--monitors all`` expands to, per problem: the one home of that
#: decision.  It lives here (not in the problem bundles) so
#: :mod:`repro.invariants` stays import-independent of
#: :mod:`repro.problems`.
PROBLEM_MONITORS: Dict[str, Tuple[str, ...]] = {
    "mst": MONITOR_NAMES,
    "mis": (
        "mis-independence",
        "mis-no-uncovered-node",
        "block-awake-budget",
        "congest-bit-budget",
    ),
}

#: Spec values meaning "no monitors".
_OFF_SPECS = ("", "off", "none", "null")


def resolve_monitor_spec(spec: Optional[str]) -> Optional[str]:
    """Normalize a ``--monitors`` spec; raise ``ValueError`` on unknowns.

    ``None`` / ``"off"`` / ``"none"`` -> ``None`` (detached);
    ``"all"`` -> ``"all"``; otherwise a comma-separated list of registry
    names, canonicalized into registry order.
    """
    if spec is None:
        return None
    text = spec.strip().lower()
    if text in _OFF_SPECS:
        return None
    if text == "all":
        return "all"
    requested = [part.strip() for part in text.split(",") if part.strip()]
    unknown = [name for name in requested if name not in MONITOR_REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown monitor(s) {unknown}; available: "
            f"{', '.join(MONITOR_REGISTRY)}"
        )
    ordered = [name for name in MONITOR_REGISTRY if name in set(requested)]
    return ",".join(ordered)


def build_monitor_set(
    spec: Optional[str] = "all", mode: str = "record", problem: str = "mst"
) -> Optional["MonitorSet"]:
    """Build a :class:`MonitorSet` from a spec string (``None`` when off).

    ``"all"`` expands per problem through :data:`PROBLEM_MONITORS` —
    deliberately at *build* time, not spec-resolution time, so grid spec
    strings (and therefore :class:`~repro.orchestrator.jobs.JobSpec`
    hashes) stay problem-independent.
    """
    canonical = resolve_monitor_spec(spec)
    if canonical is None:
        return None
    if canonical == "all":
        names: Iterable[str] = PROBLEM_MONITORS.get(problem, MONITOR_NAMES)
    else:
        names = canonical.split(",")
    return MonitorSet([MONITOR_REGISTRY[name]() for name in names], mode=mode)


class MonitorSet:
    """A group of monitors attached to one simulation run.

    The engine duck-types this interface (``attach`` / ``on_probe`` /
    ``on_span_close`` / ``finalize`` / ``__len__``), so
    :mod:`repro.sim` never imports this package.
    """

    def __init__(
        self,
        monitors: Optional[Iterable[InvariantMonitor]] = None,
        mode: str = "record",
    ):
        if mode not in ("record", "strict"):
            raise ValueError(f"unknown monitor mode {mode!r}")
        if monitors is None:
            monitors = [MONITOR_REGISTRY[name]() for name in MONITOR_NAMES]
        self.monitors: List[InvariantMonitor] = list(monitors)
        self.mode = mode
        self.report = ViolationReport()
        self.view: Optional[MonitorView] = None
        self._points: Dict[str, List[InvariantMonitor]] = {}
        self._span_monitors: List[InvariantMonitor] = []
        self._buffers: Dict[Tuple[str, Optional[int]], Dict[int, Dict[str, Any]]] = {}
        self._finalized = False
        self._n = 0
        for monitor in self.monitors:
            for point in monitor.points:
                self._points.setdefault(point, []).append(monitor)
            if monitor.wants_spans:
                self._span_monitors.append(monitor)

    def __len__(self) -> int:
        return len(self.monitors)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(monitor.name for monitor in self.monitors)

    @property
    def violations(self) -> List[Violation]:
        return self.report.violations

    # -- engine-facing hooks -------------------------------------------

    def attach(self, graph: Any, node_ids: Sequence[int], seed: int = 0) -> None:
        """(Re)initialize for a fresh run — called by the engine."""
        self.view = MonitorView(graph, node_ids, seed=seed)
        self.report = ViolationReport()
        self._buffers = {}
        self._finalized = False
        self._n = self.view.n
        for monitor in self.monitors:
            monitor.reset(self.view)

    def on_probe(
        self, node: int, round_number: int, point: str, payload: Dict[str, Any]
    ) -> None:
        """Buffer one node's snapshot; fire checkers on a complete group."""
        interested = self._points.get(point)
        if interested is None:
            return
        phase = payload.get("phase")
        key = (point, phase)
        buffer = self._buffers.setdefault(key, {})
        buffer[node] = payload
        if len(buffer) < self._n:
            return
        del self._buffers[key]
        for monitor in interested:
            self.report.checks_run += 1
            self._record(monitor.check_group(point, phase, buffer))

    def on_span_close(self, record: Any) -> None:
        for monitor in self._span_monitors:
            violations = monitor.on_span_close(record)
            if violations:
                self._record(violations)

    def finalize(
        self,
        metrics: Any = None,
        spans: Any = None,
        results: Optional[Dict[int, Any]] = None,
        congest_budget: int = 0,
    ) -> ViolationReport:
        """End-of-run checks; also files incomplete probe groups.

        Idempotent: a crashed run is finalized by
        :func:`repro.graphs.verify_or_diagnose` (the engine never got
        there), while a clean run is finalized by the engine — callers
        that do both must not double-count checks.
        """
        if self._finalized:
            return self.report
        self._finalized = True
        view = self.view if self.view is not None else MonitorView(None, ())
        for (point, phase), buffer in sorted(
            self._buffers.items(), key=lambda item: (str(item[0][0]), item[0][1] or 0)
        ):
            self.report.incomplete_groups.append(
                (point, phase, len(buffer), self._n)
            )
        ctx = FinalizeContext(
            view=view,
            metrics=metrics,
            spans=spans,
            results=results,
            congest_budget=congest_budget,
            incomplete=dict(self._buffers),
        )
        for monitor in self.monitors:
            self.report.checks_run += 1
            self._record(monitor.finalize(ctx))
        return self.report

    # -- internals -----------------------------------------------------

    def _record(self, violations: Iterable[Violation]) -> None:
        for violation in violations:
            self.report.add(violation)
            if self.mode == "strict":
                raise InvariantViolation(violation)
