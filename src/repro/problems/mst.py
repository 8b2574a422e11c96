"""The MST problem bundle — the paper's own problem, now one of many.

This module owns the algorithm tables that used to live in
:mod:`repro.orchestrator.registry`; the registry re-exports the *same*
dict objects for backwards compatibility, so the two views cannot drift.
Runners all share the signature ``runner(graph, seed, **options)`` and
return an :class:`repro.core.MSTRunResult`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

from repro.baselines import run_pipelined_ghs, run_traditional_ghs
from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import WeightedGraph, mst_weight_set
from repro.invariants.monitors import PROBLEM_MONITORS
from repro.sim.capabilities import require

from .base import SIMULATOR_OPTIONS, AlgorithmRunner, ProblemBundle, register_problem


def _run_randomized(graph: WeightedGraph, seed: int, **options: Any):
    return run_randomized_mst(graph, seed=seed, **options)


def _run_deterministic(graph: WeightedGraph, seed: int, **options: Any):
    return run_deterministic_mst(graph, seed=seed, **options)


def _run_logstar(graph: WeightedGraph, seed: int, **options: Any):
    options.setdefault("coloring", "log-star")
    return run_deterministic_mst(graph, seed=seed, **options)


# The comparators have no vectorized implementation; ``engine`` is taken
# here so that ``"array"`` fails loudly instead of reaching the GHS runners.
# Pipelined-GHS has no phase budget, so ``termination`` is taken too.
def _run_traditional(
    graph: WeightedGraph, seed: int, engine: Optional[str] = None, **options: Any
):
    require(engine, "Traditional-GHS")
    return run_traditional_ghs(graph, seed=seed, **options)


def _run_pipelined(
    graph: WeightedGraph, seed: int, engine: Optional[str] = None,
    termination: str = "adaptive", **options: Any,
):
    require(engine, "Pipelined-GHS")
    if termination != "adaptive":
        raise ValueError("Pipelined-GHS runs only with termination='adaptive'")
    return run_pipelined_ghs(graph, seed=seed, **options)


#: The runners behind each Table 1 row (+ the traditional comparators).
ALGORITHMS: Dict[str, AlgorithmRunner] = {
    "Randomized-MST": _run_randomized,
    "Deterministic-MST": _run_deterministic,
    "LogStar-MST": _run_logstar,
    "Traditional-GHS": _run_traditional,
    "Pipelined-GHS": _run_pipelined,
}


def _run_crashing(graph: WeightedGraph, seed: int, **options: Any):
    raise RuntimeError(
        f"Crashing-MST always fails (n={graph.n}, seed={seed})"
    )


#: Diagnostic runners resolvable by the orchestrator but deliberately not
#: part of :data:`ALGORITHMS` (so table/sweep consumers never iterate into
#: them).  ``Crashing-MST`` exercises crash isolation and resume paths.
DIAGNOSTIC_ALGORITHMS: Dict[str, AlgorithmRunner] = {
    "Crashing-MST": _run_crashing,
}

#: Spec options of ``run_randomized_mst``, which Traditional-GHS and
#: Crashing-MST take as well.
RANDOMIZED_OPTIONS = SIMULATOR_OPTIONS | {
    "termination", "max_phases", "verify", "engine",
}
#: ``run_deterministic_mst`` adds the colouring subroutine.
DETERMINISTIC_OPTIONS = RANDOMIZED_OPTIONS | {"coloring"}

#: The spec options each runner accepts.
OPTIONS = {
    "Randomized-MST": RANDOMIZED_OPTIONS,
    "Deterministic-MST": DETERMINISTIC_OPTIONS,
    "LogStar-MST": DETERMINISTIC_OPTIONS,
    "Traditional-GHS": RANDOMIZED_OPTIONS,
    "Pipelined-GHS": SIMULATOR_OPTIONS | {"engine", "termination"},
    "Crashing-MST": RANDOMIZED_OPTIONS,
}

#: Lowercase CLI-style aliases for the canonical algorithm names.
ALGORITHM_ALIASES: Dict[str, str] = {
    "randomized": "Randomized-MST",
    "deterministic": "Deterministic-MST",
    "logstar": "LogStar-MST",
    "log-star": "LogStar-MST",
    "traditional": "Traditional-GHS",
    "pipelined": "Pipelined-GHS",
    "crashing": "Crashing-MST",
}


MST_BUNDLE = register_problem(
    ProblemBundle(
        name="mst",
        title="Minimum Spanning Tree",
        description=(
            "O(log n)-awake MST in the sleeping model "
            "(Augustine, Moses Jr., Pandurangan; PODC 2022)"
        ),
        algorithms=ALGORITHMS,
        aliases=ALGORITHM_ALIASES,
        default_algorithm="Randomized-MST",
        check_label="correct MST",
        awake_bound="O(log n)",
        diagnostic_algorithms=DIAGNOSTIC_ALGORITHMS,
        reference_solver=mst_weight_set,
        monitors=PROBLEM_MONITORS["mst"],
        bench_names=(
            "mst_randomized_e2e_n256",
            "mst_deterministic_e2e_n64",
        ),
        awake_normalizer=lambda n: math.log2(max(2, n)),
        normalizer_label="log2 n",
        options=OPTIONS,
    )
)
