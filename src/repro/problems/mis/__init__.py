"""The MIS problem bundle: O(log log n)-awake maximal independent set."""

import math

from repro.invariants.monitors import PROBLEM_MONITORS

from ..base import SIMULATOR_OPTIONS, ProblemBundle, register_problem
from .protocol import (
    MIS_PHASE_BLOCKS,
    MISNodeOutput,
    mis_phase_plan,
    sleeping_mis_protocol,
)
from .reference import greedy_mis
from .runner import MISRunResult, run_sleeping_mis
from .validation import (
    MISOutputError,
    check_local_mis_outputs,
    is_independent_set,
    is_maximal_independent_set,
)


def _run_sleeping_mis(graph, seed, **options):
    return run_sleeping_mis(graph, seed=seed, **options)


MIS_BUNDLE = register_problem(
    ProblemBundle(
        name="mis",
        title="Maximal Independent Set",
        description=(
            "O(log log n)-awake MIS in the sleeping model "
            "(Dufoulon, Moses Jr., Pandurangan; arXiv 2204.08359)"
        ),
        algorithms={"Sleeping-MIS": _run_sleeping_mis},
        # ``randomized`` keeps the CLI grid defaults (--algorithms
        # randomized) meaningful under --problem mis.
        aliases={
            "mis": "Sleeping-MIS",
            "sleeping-mis": "Sleeping-MIS",
            "randomized": "Sleeping-MIS",
        },
        default_algorithm="Sleeping-MIS",
        check_label="maximal independent set",
        awake_bound="O(log log n)",
        reference_solver=greedy_mis,
        monitors=PROBLEM_MONITORS["mis"],
        bench_names=(
            "mis_sleeping_e2e_n64",
            "mis_sleeping_e2e_n256",
            "mis_sleeping_monitored_n64",
        ),
        awake_normalizer=lambda n: math.log2(max(2.0, math.log2(max(4, n)))),
        normalizer_label="log2 log2 n",
        options={
            "Sleeping-MIS": SIMULATOR_OPTIONS | {"max_phases", "verify", "engine"},
        },
    )
)

__all__ = [
    "MIS_BUNDLE",
    "MIS_PHASE_BLOCKS",
    "MISNodeOutput",
    "MISOutputError",
    "MISRunResult",
    "check_local_mis_outputs",
    "greedy_mis",
    "is_independent_set",
    "is_maximal_independent_set",
    "mis_phase_plan",
    "run_sleeping_mis",
    "sleeping_mis_protocol",
]
