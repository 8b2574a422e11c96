"""The graph-family registry.

Every driver that names a graph family resolves it here.  Graph
factories share ``factory(n, seed, id_range)`` and return a connected
:class:`repro.graphs.WeightedGraph`.  Algorithm names resolve through
the problem bundles (:func:`repro.problems.problem_bundle`).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional

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
