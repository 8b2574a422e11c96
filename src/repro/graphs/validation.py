"""Structural validation helpers for graphs and distributed outputs.

These checks back the test-suite invariants and are also exported so users
can sanity-check their own graph inputs before running the algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .weighted_graph import WeightedGraph

#: The four ways a (possibly fault-injected) MST run can end.  ``correct``
#: and ``silent_wrong`` both passed the output convention; only comparison
#: against the reference MST separates them.  ``detected_wrong`` means the
#: run itself (or output validation) raised; ``hung`` means it exceeded a
#: simulation limit without terminating.
DIAGNOSIS_OUTCOMES = ("correct", "detected_wrong", "silent_wrong", "hung")


class MSTOutputError(AssertionError):
    """The paper's output convention failed.

    ``missing`` names the nodes that produced no MST output at all — the
    *output hole* a crash-faulted run leaves behind.  It is empty for the
    other convention failures (non-incident edges, endpoint disagreement).
    """

    def __init__(self, message: str, missing: Sequence[int] = ()) -> None:
        super().__init__(message)
        self.missing: Tuple[int, ...] = tuple(missing)


def require_connected(graph: WeightedGraph) -> None:
    """Raise ``ValueError`` if the graph is disconnected.

    The MST algorithms assume a connected input (Section 1.1); on a
    disconnected graph "the MST" does not exist.
    """
    if not graph.is_connected():
        raise ValueError("graph must be connected for MST computation")


def require_sleeping_model_inputs(graph: WeightedGraph) -> None:
    """Connectivity: the one input assumption :class:`WeightedGraph`'s
    constructor does not check."""
    require_connected(graph)


def check_local_mst_outputs(
    graph: WeightedGraph, node_outputs: Mapping[int, Iterable[int]]
) -> Set[int]:
    """Validate the paper's *output convention* and return the global edge set.

    "The goal ... is for every node to know which of its incident edges
    belong to the MST."  Each node therefore reports a set of incident edge
    weights.  This function checks:

    * every node reported;
    * every reported weight is an incident edge of that node;
    * the two endpoints of every edge agree (both report it or neither).

    Returns the union — the globally claimed MST edge set.
    """
    missing = sorted(node for node in graph.node_ids if node not in node_outputs)
    if missing:
        raise MSTOutputError(
            f"nodes missing MST output: {missing[:10]}", missing=missing
        )

    # A weight is incident to a node when the edge it names has the node
    # as an endpoint; the column index finds that edge.
    columns = graph.edge_columns
    column_u, column_v, index = columns.u, columns.v, columns.index
    reported: Dict[int, Set[int]] = {}
    for node, weights in node_outputs.items():
        if node not in graph:
            raise KeyError(node)
        weight_set = set(weights)
        foreign = set()
        for weight in weight_set:
            position = index.get(weight)
            if position is None or node not in (
                column_u[position], column_v[position]
            ):
                foreign.add(weight)
        if foreign:
            raise AssertionError(
                f"node {node} reported non-incident edge weights {sorted(foreign)[:10]}"
            )
        reported[node] = weight_set

    union: Set[int] = set()
    for node, weight_set in reported.items():
        union |= weight_set
    for weight in union:
        position = index[weight]
        u, v = column_u[position], column_v[position]
        u_has = weight in reported[u]
        v_has = weight in reported[v]
        if not (u_has and v_has):
            raise AssertionError(
                f"endpoints disagree on edge weight {weight}: "
                f"{u} reported={u_has}, {v} reported={v_has}"
            )
    return union


@dataclass(frozen=True)
class MSTDiagnosis:
    """Outcome classification of one (possibly fault-injected) MST run.

    ``outcome`` is one of :data:`DIAGNOSIS_OUTCOMES`; ``result`` is
    whatever the runner returned (``None`` unless the run completed);
    ``error`` is the stringified failure for ``detected_wrong`` / ``hung``.

    The remaining fields refine the post-mortem: ``missing_nodes`` is the
    per-node *output hole* (nodes that produced no MST output, from
    :class:`MSTOutputError`); ``crashed_nodes`` names nodes known to have
    crashed (from the raising :class:`~repro.sim.errors.NodeCrashed` or
    the completed run's metrics); ``first_invariant`` / ``violations``
    come from an attached :class:`repro.invariants.MonitorSet` — the name
    of the first paper invariant that fired, and how many violations were
    recorded in total.  All default empty, so pre-monitor call sites and
    serialized records are unaffected.
    """

    outcome: str
    result: object = None
    error: Optional[str] = None
    missing_nodes: Tuple[int, ...] = ()
    crashed_nodes: Tuple[int, ...] = ()
    first_invariant: Optional[str] = None
    violations: int = 0

    @property
    def completed(self) -> bool:
        """True when the run terminated and passed output validation."""
        return self.outcome in ("correct", "silent_wrong")


def _monitor_fields(monitors: object) -> Dict[str, object]:
    """Finalize an attached monitor set (idempotent) and extract its verdict.

    A crashed/hung run never reached the engine's own finalize, so this is
    where its incomplete probe groups get filed; a clean run was already
    finalized by the engine and the second call is a no-op.
    """
    if monitors is None:
        return {}
    report = monitors.finalize()
    return {
        "first_invariant": report.first_invariant,
        "violations": len(report),
    }


def verify_or_diagnose(
    graph: WeightedGraph,
    run: Callable[[], object],
    monitors: object = None,
) -> MSTDiagnosis:
    """Execute ``run`` and classify its outcome against the reference MST.

    This is the fault-injection oracle: under a perfect channel every run
    is ``correct``; under drops/delays/crashes (see
    :mod:`repro.sim.transport`) an awake-optimal protocol may crash on a
    missing message (``detected_wrong`` — the failure was *detected*,
    either by the protocol itself or by the output-convention check), spin
    past a simulation limit (``hung``), or — worst — terminate cleanly
    with a tree that is not the MST (``silent_wrong``).

    ``run`` must return an object exposing ``is_correct(graph)`` (any
    :class:`repro.core.RunResult` — the problem-generic surface) or the
    legacy ``is_correct_mst(graph)``.  Exceptions raised by ``run`` are
    classified, not propagated — except for
    ``KeyboardInterrupt``/``SystemExit``,
    :class:`~repro.sim.errors.UnsupportedFeatureError` and ``ValueError``
    (the engine wraps a protocol's errors as ``NodeCrashed``, so a bare
    one is an option or a graph rejected before the first round): a
    configuration the backend cannot run is the caller's error, not a
    protocol outcome.

    When the run was executed with an attached
    :class:`repro.invariants.MonitorSet`, pass it as ``monitors``: the
    diagnosis then names the first paper invariant that fired
    (``first_invariant``) and the total violation count, even for runs
    that crashed or hung before the engine could finalize the monitors.
    """
    # Imported lazily: the graphs layer must not depend on the simulator
    # at import time (layering), only on its error taxonomy at call time.
    from repro.sim.errors import (
        SimulationError,
        SimulationLimitExceeded,
        UnsupportedFeatureError,
    )

    try:
        result = run()
    except UnsupportedFeatureError:
        raise
    except SimulationLimitExceeded as error:
        return MSTDiagnosis(
            outcome="hung", error=str(error), **_monitor_fields(monitors)
        )
    except (SimulationError, AssertionError) as error:
        missing: Tuple[int, ...] = ()
        crashed: Tuple[int, ...] = ()
        if isinstance(error, MSTOutputError):
            missing = error.missing
        node_id = getattr(error, "node_id", None)
        if node_id is not None:
            crashed = (node_id,)
        return MSTDiagnosis(
            outcome="detected_wrong",
            error=str(error),
            missing_nodes=missing,
            crashed_nodes=crashed,
            **_monitor_fields(monitors),
        )
    metrics = getattr(result, "metrics", None)
    crashed = tuple(sorted(getattr(metrics, "crashed_nodes", None) or {}))
    # Duck-typed so non-MST RunResults (e.g. MISRunResult) diagnose the
    # same way; every result since the problem registry exposes
    # ``is_correct``, with ``is_correct_mst`` kept as the legacy spelling.
    check = getattr(result, "is_correct", None)
    if check is None:
        check = result.is_correct_mst
    outcome = "correct" if check(graph) else "silent_wrong"
    return MSTDiagnosis(
        outcome=outcome,
        result=result,
        crashed_nodes=crashed,
        **_monitor_fields(monitors),
    )


def tree_depths(
    parents: Mapping[int, int], root: int
) -> Dict[int, int]:
    """Compute depths from a parent map; raises on cycles or unreachable nodes.

    Utility shared by LDT invariant checks: ``parents`` maps each non-root
    node to its parent.
    """
    depths: Dict[int, int] = {root: 0}
    for start in parents:
        path: List[int] = []
        node = start
        while node not in depths:
            path.append(node)
            if node not in parents:
                raise AssertionError(f"node {node} has no parent and is not root")
            node = parents[node]
            if len(path) > len(parents) + 1:
                raise AssertionError("cycle detected in parent map")
        base = depths[node]
        for offset, member in enumerate(reversed(path), start=1):
            depths[member] = base + offset
    return depths
