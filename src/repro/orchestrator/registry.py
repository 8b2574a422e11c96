"""The single algorithm + graph-family registry.

Every driver that names an algorithm or a graph family — the CLI,
campaigns, Table 1, the batch orchestrator — resolves it here, so
the set of runnable things is defined exactly once.  Canonical algorithm
names are the Table 1 names (``Randomized-MST``, ...); lowercase CLI-style
aliases (``randomized``, ...) resolve to them.

Since the problem-registry refactor the algorithm tables live in problem
bundles (:mod:`repro.problems`); this module re-exports the MST bundle's
tables (the *same* dict objects, so they cannot drift) and grows a
``problem=`` axis on :func:`resolve_algorithm` / :func:`algorithm_runner`.
Runners all share the signature ``runner(graph, seed, **options)`` and
return a :class:`repro.core.RunResult`; graph factories share
``factory(n, seed, id_range)`` and return a connected
:class:`repro.graphs.WeightedGraph`.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

from repro.problems import AlgorithmRunner, problem_bundle, resolve_problem
from repro.problems.mst import (
    ALGORITHM_ALIASES,
    ALGORITHMS,
    DIAGNOSTIC_ALGORITHMS,
)
from repro.sim.transport import (
    CHANNEL_SPEC_EXAMPLES,
    parse_channel_spec,
    validate_channel_spec,
)
from repro.graphs import (
    WeightedGraph,
    complete_graph,
    grid_graph,
    path_graph,
    random_connected_graph,
    random_geometric_graph,
    ring_graph,
    star_graph,
)

GraphFactory = Callable[[int, int, Optional[int]], WeightedGraph]

#: Graph families available everywhere (CLI ``run``/``batch``,
#: campaigns, the orchestrator).
GRAPH_FAMILIES: Dict[str, GraphFactory] = {
    "ring": lambda n, seed, idr: ring_graph(n, seed=seed, id_range=idr),
    "path": lambda n, seed, idr: path_graph(n, seed=seed, id_range=idr),
    "star": lambda n, seed, idr: star_graph(n, seed=seed, id_range=idr),
    "complete": lambda n, seed, idr: complete_graph(n, seed=seed, id_range=idr),
    "grid": lambda n, seed, idr: grid_graph(
        max(2, int(math.isqrt(n))),
        max(2, n // max(2, int(math.isqrt(n)))),
        seed=seed,
        id_range=idr,
    ),
    "gnp": lambda n, seed, idr: random_connected_graph(
        n, extra_edge_prob=0.1, seed=seed, id_range=idr
    ),
    "geometric": lambda n, seed, idr: random_geometric_graph(
        n, radius=0.35, seed=seed, id_range=idr
    ),
}


def resolve_algorithm(name: str, problem: Optional[str] = None) -> str:
    """Return the canonical name for ``name`` within ``problem``.

    ``problem`` defaults to ``"mst"`` — the pre-registry behaviour.
    """
    return problem_bundle(problem).resolve_algorithm(name)


def algorithm_runner(
    name: str, problem: Optional[str] = None
) -> AlgorithmRunner:
    """Return the runner for ``name`` (canonical or alias) in ``problem``."""
    return problem_bundle(problem).runner(name)


def resolve_family(name: str) -> str:
    """Validate a graph-family name and return it."""
    if name not in GRAPH_FAMILIES:
        raise ValueError(
            f"unknown family {name!r}; choose from {sorted(GRAPH_FAMILIES)}"
        )
    return name


def graph_factory(name: str) -> GraphFactory:
    """Return the graph factory for family ``name``."""
    return GRAPH_FAMILIES[resolve_family(name)]


def resolve_channel_spec(spec: Optional[str]) -> Optional[str]:
    """Validate a ``--faults`` channel spec and return its normalized form.

    ``None``, the empty string, and ``"perfect"`` normalize to ``None``
    (the default perfect channel — no fault axis recorded).  Unknown specs
    raise ``ValueError`` listing examples; see
    :func:`repro.sim.transport.parse_channel_spec` for the grammar.
    """
    try:
        return validate_channel_spec(spec)
    except ValueError as error:
        message = str(error)
        if "examples:" not in message:
            message = f"{message}; examples: {', '.join(CHANNEL_SPEC_EXAMPLES)}"
        raise ValueError(message) from None


def channel_from_spec(spec: Optional[str]):
    """Build the :class:`~repro.sim.transport.ChannelModel` for ``spec``."""
    return parse_channel_spec(spec)
