"""The MIS problem bundle: O(log log n)-awake maximal independent set."""

import math

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
        awake_normalizer=lambda n: math.log2(max(2.0, math.log2(max(4, n)))),
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
