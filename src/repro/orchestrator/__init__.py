"""Parallel experiment orchestrator: jobs, cache, store, pool, progress.

The layer between the simulation engine and every driver above it.  A
grid of ``(algorithm × graph family × n × seed)`` cells becomes a list
of content-hashed :class:`JobSpec`; :func:`run_jobs` executes them with
crash isolation across a worker pool, serves repeats from the
content-addressed :class:`ResultCache`, journals every outcome to an
append-only JSONL :class:`RunStore`, and skips cells a ``resume`` store
already completed.  Pool workers stay warm across calls until
:func:`shutdown_workers` or interpreter exit.

.. code-block:: python

    from repro.orchestrator import ResultCache, expand_grid, run_jobs

    specs = expand_grid(["randomized"], ["ring", "gnp"], [16, 32], range(3))
    report = run_jobs(specs, workers=4, cache=ResultCache(".repro-cache"),
                      store="runs.jsonl")
    assert report.failed == 0
"""

from .cache import ResultCache
from .jobs import (
    FAULT_MAX_AWAKE_EVENTS,
    GRID_PAYLOAD_KEYS,
    Cell,
    JobSpec,
    canonical_json,
    execute_job,
    expand_grid,
    grid_from_payload,
    grid_key,
    run_cell,
)
from .pool import (
    BatchReport,
    JobTimeout,
    execute_with_policy,
    run_jobs,
    shutdown_workers,
)
from .progress import ProgressReporter
from .registry import (
    ALGORITHM_ALIASES,
    ALGORITHMS,
    DIAGNOSTIC_ALGORITHMS,
    GRAPH_FAMILIES,
    algorithm_runner,
    channel_from_spec,
    graph_factory,
    resolve_algorithm,
    resolve_channel_spec,
    resolve_family,
    resolve_problem,
)
from .store import (
    SCHEMA_VERSION,
    STATUS_FAILED,
    STATUS_OK,
    RunRecord,
    RunStore,
    load_records,
)

__all__ = [
    "ALGORITHM_ALIASES",
    "ALGORITHMS",
    "BatchReport",
    "Cell",
    "DIAGNOSTIC_ALGORITHMS",
    "GRAPH_FAMILIES",
    "JobSpec",
    "JobTimeout",
    "ProgressReporter",
    "ResultCache",
    "RunRecord",
    "RunStore",
    "SCHEMA_VERSION",
    "STATUS_FAILED",
    "STATUS_OK",
    "algorithm_runner",
    "canonical_json",
    "channel_from_spec",
    "FAULT_MAX_AWAKE_EVENTS",
    "execute_job",
    "execute_with_policy",
    "expand_grid",
    "graph_factory",
    "GRID_PAYLOAD_KEYS",
    "grid_from_payload",
    "grid_key",
    "load_records",
    "resolve_algorithm",
    "resolve_channel_spec",
    "resolve_family",
    "resolve_problem",
    "run_cell",
    "run_jobs",
    "shutdown_workers",
]
