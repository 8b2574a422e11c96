"""MIS output validation: independence, maximality, domination witnesses.

Mirrors :func:`repro.graphs.validation.check_local_mst_outputs` for the
MIS output convention: the checker consumes the *local* per-node outputs,
reconstructs the claimed set, and certifies it is a maximal independent
set whose out-nodes each point at a real in-MIS neighbour.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from repro.graphs import WeightedGraph
from repro.graphs.validation import MSTOutputError

from .protocol import MISNodeOutput


class MISOutputError(MSTOutputError):
    """An MIS output set failed validation.

    Subclasses :class:`MSTOutputError` so the diagnosis path
    (:func:`repro.graphs.verify_or_diagnose`) picks up ``.missing`` — the
    nodes that produced no output — without problem-specific handling.
    """


def is_independent_set(graph: WeightedGraph, nodes: FrozenSet[int]) -> bool:
    """True iff no edge of ``graph`` has both endpoints in ``nodes``."""
    columns = graph.edge_columns
    return not any(
        u in nodes and v in nodes for u, v in zip(columns.u, columns.v)
    )


def is_maximal_independent_set(
    graph: WeightedGraph, nodes: FrozenSet[int]
) -> bool:
    """True iff ``nodes`` is independent and no node can be added."""
    if not is_independent_set(graph, nodes):
        return False
    return all(
        node in nodes or any(nbr in nodes for nbr in graph.neighbors(node))
        for node in graph.node_ids
    )


def check_local_mis_outputs(
    graph: WeightedGraph, outputs: Dict[int, MISNodeOutput]
) -> FrozenSet[int]:
    """Validate per-node MIS outputs; return the certified MIS node set.

    Checks, in order: every node produced an output (missing nodes raise
    :class:`MISOutputError` with ``.missing`` populated, matching the MST
    convention); the in-nodes form an independent set; the set is maximal;
    and every out-node's ``mis_ports`` witnesses point at in-MIS
    neighbours.
    """
    missing = sorted(set(graph.node_ids) - set(outputs))
    if missing:
        raise MISOutputError(
            f"nodes without MIS output: {missing}", missing=missing
        )
    in_mis = frozenset(
        node for node, output in outputs.items() if output.in_mis
    )
    columns = graph.edge_columns
    for u, v in zip(columns.u, columns.v):
        if u in in_mis and v in in_mis:
            raise MISOutputError(
                f"independence violated: adjacent nodes {u} and "
                f"{v} both claim MIS membership"
            )
    for node, output in outputs.items():
        if output.in_mis:
            continue
        neighbours = set(graph.neighbors(node))
        if not neighbours & in_mis:
            raise MISOutputError(
                f"maximality violated: node {node} is out of the MIS but "
                f"has no MIS neighbour"
            )
        ports = graph.ports_of(node)
        for port in output.mis_ports:
            witness = ports.get(port)
            if witness is None or witness[0] not in in_mis:
                raise MISOutputError(
                    f"node {node} cites port {port} as a domination "
                    f"witness but it does not lead to an MIS node"
                )
    return in_mis
