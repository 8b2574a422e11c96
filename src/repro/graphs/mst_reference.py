"""Sequential reference MST algorithms and verifiers.

The distributed algorithms are tested against these centralised
implementations.  With distinct edge weights the MST is unique, so
correctness checks reduce to set equality of edge-weight sets.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Dict, Iterable, List, Set, Tuple

from .weighted_graph import Edge, WeightedGraph


class UnionFind:
    """Disjoint-set forest with path compression and union by size."""

    def __init__(self, items: Iterable[int]) -> None:
        self._parent: Dict[int, int] = {item: item for item in items}
        self._size: Dict[int, int] = {item: 1 for item in self._parent}
        self.components = len(self._parent)

    def find(self, item: int) -> int:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; return False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self.components -= 1
        return True

    def same(self, a: int, b: int) -> bool:
        return self.find(a) == self.find(b)


def _kruskal(graph: WeightedGraph) -> List[Tuple[int, int, int]]:
    """Kruskal's algorithm over the graph's edge columns: the MST's
    ``(weight, u, v)`` triples in increasing weight order."""
    columns = graph.edge_columns
    union_find = UnionFind(graph.node_ids)
    # Weights are distinct: sorting by weight alone orders the triples,
    # and comparing one int is cheaper than comparing tuples.
    tree = [
        edge
        for edge in sorted(
            zip(columns.weight, columns.u, columns.v), key=itemgetter(0)
        )
        if union_find.union(edge[1], edge[2])
    ]
    if union_find.components != 1:
        raise ValueError("graph is disconnected; no spanning tree exists")
    return tree


def kruskal_mst(graph: WeightedGraph) -> List[Edge]:
    """Kruskal's algorithm; edges returned in increasing weight order."""
    return [Edge(*edge) for edge in _kruskal(graph)]


def prim_mst(graph: WeightedGraph) -> List[Edge]:
    """Prim's algorithm from the smallest node ID."""
    nodes = graph.node_ids
    if len(nodes) == 1:
        return []
    start = nodes[0]
    in_tree: Set[int] = {start}
    frontier: List[Tuple[int, int, int]] = []
    for neighbour, _, weight in graph.ports_of(start).values():
        heapq.heappush(frontier, (weight, start, neighbour))
    tree: List[Edge] = []
    while frontier and len(in_tree) < len(nodes):
        weight, u, v = heapq.heappop(frontier)
        if v in in_tree:
            continue
        in_tree.add(v)
        tree.append(Edge.make(u, v, weight))
        for neighbour, _, next_weight in graph.ports_of(v).values():
            if neighbour not in in_tree:
                heapq.heappush(frontier, (next_weight, v, neighbour))
    if len(in_tree) < len(nodes):
        raise ValueError("graph is disconnected; no spanning tree exists")
    return tree


def boruvka_mst(graph: WeightedGraph) -> List[Edge]:
    """Borůvka's algorithm — the sequential skeleton of GHS.

    Included both as a third correctness oracle and because its phase
    structure (every component picks its minimum outgoing edge, components
    merge) is exactly what the paper's algorithms implement distributively.
    """
    union_find = UnionFind(graph.node_ids)
    tree: List[Edge] = []
    edges = graph.edges()
    while union_find.components > 1:
        cheapest: Dict[int, Edge] = {}
        for edge in edges:
            ru, rv = union_find.find(edge.u), union_find.find(edge.v)
            if ru == rv:
                continue
            for root in (ru, rv):
                best = cheapest.get(root)
                if best is None or edge.weight < best.weight:
                    cheapest[root] = edge
        if not cheapest:
            raise ValueError("graph is disconnected; no spanning tree exists")
        for edge in cheapest.values():
            if union_find.union(edge.u, edge.v):
                tree.append(edge)
    return tree


def mst_weight_set(graph: WeightedGraph) -> Set[int]:
    """The unique MST as a set of edge weights (weights identify edges)."""
    return {weight for weight, _, _ in _kruskal(graph)}


def is_spanning_tree(graph: WeightedGraph, weights: Iterable[int]) -> bool:
    """Check that the edges with the given weights form a spanning tree."""
    chosen = set(weights)
    edges = [edge for edge in graph.edges() if edge.weight in chosen]
    if len(edges) != graph.n - 1 or len(chosen) != len(edges):
        return False
    union_find = UnionFind(graph.node_ids)
    for edge in edges:
        if not union_find.union(edge.u, edge.v):
            return False
    return union_find.components == 1


def verify_mst(graph: WeightedGraph, weights: Iterable[int]) -> None:
    """Raise ``AssertionError`` unless ``weights`` is exactly the unique MST."""
    claimed = set(weights)
    expected = mst_weight_set(graph)
    if claimed != expected:
        missing = sorted(expected - claimed)
        extra = sorted(claimed - expected)
        raise AssertionError(
            f"not the MST: missing weights {missing[:10]}, extra {extra[:10]} "
            f"(claimed {len(claimed)} edges, expected {len(expected)})"
        )
