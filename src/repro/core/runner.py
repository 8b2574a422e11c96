"""High-level entry points: run an MST algorithm on a graph, get results.

This is the public API most users want:

.. code-block:: python

    from repro import run_randomized_mst
    from repro.graphs import random_connected_graph

    graph = random_connected_graph(64, seed=7)
    result = run_randomized_mst(graph, seed=7)
    print(result.mst_weights)          # the MST edge set (by weight)
    print(result.metrics.max_awake)    # awake complexity of this run
    print(result.metrics.rounds)       # round complexity of this run

Each runner executes the corresponding node protocol on every node under
:class:`repro.sim.SleepingSimulator`, validates the paper's output
convention (every node knows its incident MST edges and endpoint views
agree), and packages metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Set

from repro.graphs import (
    WeightedGraph,
    check_local_mst_outputs,
    mst_weight_set,
    require_sleeping_model_inputs,
)
from repro.sim import Metrics, SimulationResult, SleepingSimulator
from repro.sim.capabilities import require

from .mst_randomized import MSTNodeOutput, randomized_mst_protocol


class RunResult:
    """Problem-agnostic outcome of one sleeping-model execution.

    Concrete problems subclass this with their own output fields
    (:class:`MSTRunResult` here, ``MISRunResult`` in
    :mod:`repro.problems.mis.runner`) and must provide ``algorithm``,
    ``metrics``, ``phases``, and ``simulation`` attributes plus an
    :meth:`is_correct` check against the problem's reference output.
    Generic drivers — ``verify_or_diagnose``, ``execute_job``, the CLI —
    only touch this surface.
    """

    #: Which registered problem this result answers.
    problem: str = "generic"

    @property
    def max_awake(self) -> int:
        return self.metrics.max_awake

    @property
    def rounds(self) -> int:
        return self.metrics.rounds

    @property
    def spans(self):
        """Span-attributed awake accounting (:class:`repro.obs.SpanLog`).

        Populated when the run was executed with ``observe=True``;
        ``None`` otherwise.
        """
        return self.simulation.spans

    @property
    def monitors(self):
        """The attached :class:`repro.invariants.MonitorSet`, if any.

        Populated when the run was executed with ``monitors=...``
        (forwarded through ``sim_kwargs``); ``None`` otherwise.
        """
        return self.simulation.monitors

    @property
    def violations(self):
        """Invariant violations recorded by attached monitors (``[]``
        when none were attached)."""
        return self.simulation.violations

    def is_correct(self, graph: WeightedGraph) -> bool:
        """Check the output against the problem's reference solution."""
        raise NotImplementedError


@dataclass
class MSTRunResult(RunResult):
    """Outcome of one distributed-MST execution."""

    #: Which algorithm produced this result.
    algorithm: str
    #: Globally claimed MST edge set (union of per-node outputs, validated
    #: for endpoint agreement).
    mst_weights: Set[int]
    #: Per-node outputs keyed by node ID.
    node_outputs: Dict[int, MSTNodeOutput]
    #: Simulation metrics (awake complexity, round complexity, messages...).
    metrics: Metrics
    #: Maximum number of phases executed by any node.
    phases: int
    #: The raw simulation result (trace/knowledge when enabled).
    simulation: SimulationResult

    problem = "mst"

    def is_correct_mst(self, graph: WeightedGraph) -> bool:
        """Check against the (unique) reference MST."""
        return self.mst_weights == mst_weight_set(graph)

    def is_correct(self, graph: WeightedGraph) -> bool:
        """Problem-generic alias for :meth:`is_correct_mst`."""
        return self.is_correct_mst(graph)


def _package(
    graph: WeightedGraph,
    algorithm: str,
    simulation: SimulationResult,
    *,
    verify: bool,
) -> MSTRunResult:
    outputs: Dict[int, MSTNodeOutput] = dict(simulation.node_results)
    mst_weights = check_local_mst_outputs(
        graph, {node: out.mst_weights for node, out in outputs.items()}
    )
    result = MSTRunResult(
        algorithm=algorithm,
        mst_weights=mst_weights,
        node_outputs=outputs,
        metrics=simulation.metrics,
        phases=max((out.phases for out in outputs.values()), default=0),
        simulation=simulation,
    )
    if verify and not result.is_correct_mst(graph):
        raise AssertionError(
            f"{algorithm} produced a wrong edge set on n={graph.n}: "
            f"{sorted(mst_weights)[:10]}..."
        )
    return result


def _run(
    graph: WeightedGraph,
    algorithm: str,
    protocol_factory: Any,
    *,
    seed: int,
    verify: bool,
    **sim_kwargs: Any,
) -> MSTRunResult:
    require_sleeping_model_inputs(graph)
    simulator = SleepingSimulator(
        graph, protocol_factory, seed=seed, **sim_kwargs
    )
    return _package(graph, algorithm, simulator.run(), verify=verify)


def run_randomized_mst(
    graph: WeightedGraph,
    seed: int = 0,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
    verify: bool = False,
    engine: Optional[str] = None,
    **sim_kwargs: Any,
) -> MSTRunResult:
    """Run ``Randomized-MST`` (Section 2.2 / Theorem 1) on ``graph``.

    Parameters
    ----------
    seed:
        Master seed for all node coins; identical seeds reproduce identical
        executions.
    termination:
        ``"adaptive"`` (default) or ``"fixed"`` — see
        :func:`repro.core.mst_randomized.randomized_mst_protocol`.
    max_phases:
        Optional phase-budget override.
    verify:
        When true, assert the output equals the reference MST (the
        algorithm is Monte Carlo under ``"fixed"`` termination, so a
        negligible failure probability exists there).
    engine:
        Simulation backend: ``"coroutine"`` (default) runs one protocol
        generator per node under :class:`repro.sim.SleepingSimulator`;
        ``"array"`` runs the vectorized numpy backend
        (:mod:`repro.core.array_ops`), byte-identical in results and
        metrics on the supported perfect-channel configuration and ~20x+
        faster at n >= 4096 (see docs/performance.md).  Unsupported
        feature combinations raise
        :class:`repro.sim.errors.UnsupportedFeatureError`.
    sim_kwargs:
        Forwarded to :class:`repro.sim.SleepingSimulator` (e.g. ``trace=True``,
        ``observe=True`` for span-based awake accounting,
        ``strict_congest=False``).
    """
    if require(engine) == "array":
        # Only array runs import the numpy kernels; require() has loaded
        # numpy or raised.
        from .array_ops import run_randomized_mst_array

        require_sleeping_model_inputs(graph)
        simulation = run_randomized_mst_array(
            graph,
            seed=seed,
            termination=termination,
            max_phases=max_phases,
            **sim_kwargs,
        )
        return _package(graph, "Randomized-MST", simulation, verify=verify)

    def factory(ctx):
        return randomized_mst_protocol(
            ctx, termination=termination, max_phases=max_phases
        )

    return _run(
        graph,
        "Randomized-MST",
        factory,
        seed=seed,
        verify=verify,
        **sim_kwargs,
    )


def run_deterministic_mst(
    graph: WeightedGraph,
    seed: int = 0,
    termination: str = "adaptive",
    max_phases: Optional[int] = None,
    verify: bool = False,
    coloring: str = "fast-awake",
    engine: Optional[str] = None,
    **sim_kwargs: Any,
) -> MSTRunResult:
    """Run ``Deterministic-MST`` (Section 2.3 / Theorem 2) on ``graph``.

    ``seed`` only affects nothing algorithmic (the algorithm is
    deterministic); it is accepted for interface symmetry.  ``coloring``
    selects the fragment-colouring subroutine: ``"fast-awake"`` is the
    paper's ``Fast-Awake-Coloring`` (``O(1)`` awake, ``O(nN)`` rounds per
    phase).  Only the ``"coroutine"`` engine implements this algorithm;
    ``engine="array"`` raises
    :class:`repro.sim.errors.UnsupportedFeatureError`.  Only
    ``termination="adaptive"`` runs; any other mode raises ``ValueError``
    (see :func:`repro.core.mst_deterministic.deterministic_mst_protocol`).
    """
    require(engine, "Deterministic-MST")
    from .mst_deterministic import deterministic_mst_protocol

    def factory(ctx):
        return deterministic_mst_protocol(
            ctx,
            termination=termination,
            max_phases=max_phases,
            coloring=coloring,
        )

    return _run(
        graph,
        "Deterministic-MST",
        factory,
        seed=seed,
        verify=verify,
        **sim_kwargs,
    )
