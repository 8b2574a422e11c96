"""Entry point for ``Sleeping-MIS``: run it on a graph, get results.

Mirrors :mod:`repro.core.runner` for the MIS bundle: execute the node
protocol on every node under :class:`repro.sim.SleepingSimulator`,
validate the output convention (every node decides, the in-set is a
maximal independent set, domination witnesses check out), and package
metrics behind the problem-generic :class:`repro.core.RunResult` surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional

from repro.core.runner import RunResult
from repro.graphs import WeightedGraph, require_sleeping_model_inputs
from repro.invariants import build_monitor_set
from repro.sim import Metrics, SimulationResult, SleepingSimulator
from repro.sim.capabilities import require

from .protocol import MISNodeOutput, sleeping_mis_protocol
from .validation import check_local_mis_outputs, is_maximal_independent_set


@dataclass
class MISRunResult(RunResult):
    """Outcome of one distributed-MIS execution."""

    #: Which algorithm produced this result.
    algorithm: str
    #: The computed maximal independent set (validated node IDs).
    mis_nodes: FrozenSet[int]
    #: Per-node outputs keyed by node ID.
    node_outputs: Dict[int, MISNodeOutput]
    #: Simulation metrics (awake complexity, round complexity, messages...).
    metrics: Metrics
    #: Maximum number of phases executed by any node.
    phases: int
    #: The raw simulation result (trace/knowledge when enabled).
    simulation: SimulationResult

    problem = "mis"

    def is_correct(self, graph: WeightedGraph) -> bool:
        """Check the output is a maximal independent set of ``graph``.

        MIS outputs are not unique, so unlike MST this re-certifies
        feasibility rather than comparing against a reference set.
        """
        return is_maximal_independent_set(graph, self.mis_nodes)


def run_sleeping_mis(
    graph: WeightedGraph,
    seed: int = 0,
    max_phases: Optional[int] = None,
    verify: bool = False,
    engine: Optional[str] = None,
    **sim_kwargs: Any,
) -> MISRunResult:
    """Run ``Sleeping-MIS`` (O(log log n) awake, arXiv 2204.08359) on ``graph``.

    Parameters
    ----------
    seed:
        Master seed for all node coins; identical seeds reproduce
        identical executions.
    max_phases:
        Optional truncation of the random phase plan (the deterministic
        final-slots stage still guarantees a correct MIS).
    verify:
        When true, assert the output is a maximal independent set (it
        always is — the final-slots stage is deterministic — so this
        guards the implementation, not the algorithm).
    engine:
        Only ``"coroutine"`` implements this algorithm; ``"array"``
        raises :class:`repro.sim.errors.UnsupportedFeatureError` naming
        the fallback engine.
    sim_kwargs:
        Forwarded to :class:`repro.sim.SleepingSimulator` (``trace=True``,
        ``observe=True``, ``monitors=...``).  A ``monitors`` spec string
        is built for the MIS problem, so ``"all"`` attaches the MIS
        monitors.
    """
    require(engine, "Sleeping-MIS")
    require_sleeping_model_inputs(graph)
    if isinstance(sim_kwargs.get("monitors"), str):
        # The engine would expand "all" to the MST monitors.
        sim_kwargs["monitors"] = build_monitor_set(
            sim_kwargs["monitors"], problem="mis"
        )

    def factory(ctx):
        return sleeping_mis_protocol(ctx, max_phases=max_phases)

    simulator = SleepingSimulator(graph, factory, seed=seed, **sim_kwargs)
    simulation = simulator.run()
    outputs: Dict[int, MISNodeOutput] = dict(simulation.node_results)
    mis_nodes = check_local_mis_outputs(graph, outputs)
    result = MISRunResult(
        algorithm="Sleeping-MIS",
        mis_nodes=mis_nodes,
        node_outputs=outputs,
        metrics=simulation.metrics,
        phases=max((out.phases for out in outputs.values()), default=0),
        simulation=simulation,
    )
    if verify and not result.is_correct(graph):
        raise AssertionError(
            f"Sleeping-MIS produced a non-maximal or dependent set on "
            f"n={graph.n}: {sorted(mis_nodes)[:10]}..."
        )
    return result
