"""Problem bundles: the pluggable problem registry.

Importing this package registers the built-in bundles (``mst`` first —
the default — then ``mis``).  Drivers resolve a ``problem=`` axis through
:func:`problem_bundle`; see ``docs/problems.md`` for how to add one.
"""

from .base import (
    DEFAULT_PROBLEM,
    PROBLEM_REGISTRY,
    SIMULATOR_OPTIONS,
    AlgorithmRunner,
    ProblemBundle,
    problem_bundle,
    problem_names,
    register_problem,
    resolve_problem,
)

# Bundle registration happens at import time, in registry order.
from . import mst as _mst_bundle_module  # noqa: F401  (registers "mst")
from . import mis as _mis_bundle_module  # noqa: F401  (registers "mis")

from .mis import MISNodeOutput, MISRunResult, greedy_mis, run_sleeping_mis
from .mst import MST_BUNDLE

MIS_BUNDLE = _mis_bundle_module.MIS_BUNDLE

__all__ = [
    "AlgorithmRunner",
    "DEFAULT_PROBLEM",
    "MISNodeOutput",
    "MISRunResult",
    "MIS_BUNDLE",
    "MST_BUNDLE",
    "PROBLEM_REGISTRY",
    "ProblemBundle",
    "SIMULATOR_OPTIONS",
    "greedy_mis",
    "problem_bundle",
    "problem_names",
    "register_problem",
    "resolve_problem",
    "run_sleeping_mis",
]
