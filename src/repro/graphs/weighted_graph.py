"""Weighted graph model with CONGEST-style ports.

The paper's input model (Section 1.1): an undirected connected weighted
graph ``G(V, E, w)`` with distinct edge weights; every node has locally
numbered ports, one per incident edge, and initially knows only its own ID,
``n``, ``N``, and the weights on its ports.

:class:`WeightedGraph` is the single graph type used across the library.  It
assigns each endpoint of each edge a local port number and exposes the
``node_ids`` / ``ports_of`` interface consumed by
:class:`repro.sim.SleepingSimulator`.

A graph is stored as columns: three edge columns in insertion order
(:class:`EdgeColumns`), the per-node port tables, and indexes by
endpoint pair and by weight.  :class:`Edge` objects exist only for
callers that ask for them (:meth:`WeightedGraph.edges`,
:meth:`WeightedGraph.edge_by_weight`); the per-cell consumers (the
array engine's CSR, input and output validation, the reference MST
weight set) read the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)


@dataclass(frozen=True, order=True)
class Edge:
    """An undirected weighted edge; ``u < v`` is normalised at construction."""

    weight: int
    u: int
    v: int

    @staticmethod
    def make(u: int, v: int, weight: int) -> "Edge":
        if u == v:
            raise ValueError(f"self-loop at node {u} is not allowed")
        if u > v:
            u, v = v, u
        return Edge(weight=int(weight), u=u, v=v)

    @property
    def endpoints(self) -> Tuple[int, int]:
        return (self.u, self.v)

    def other(self, node_id: int) -> int:
        """Return the endpoint that is not ``node_id``."""
        if node_id == self.u:
            return self.v
        if node_id == self.v:
            return self.u
        raise ValueError(f"node {node_id} is not an endpoint of {self}")


#: Every node ID, ``max_id`` and weight lies below this bound.  Below it an
#: int64 holds each value and its bit length exactly, and the bound itself
#: is the array engine's "no value" (:data:`repro.core.array_ops.INT_NOTHING`).
INT_BOUND = 1 << 62


class EdgeColumns(NamedTuple):
    """A graph's edges as read-only columns, in insertion order.

    Edge ``i`` joins ``u[i] < v[i]`` with weight ``weight[i]``;
    ``index`` maps a weight to its position ``i`` (weights are distinct,
    so a weight identifies an edge).
    """

    u: Tuple[int, ...]
    v: Tuple[int, ...]
    weight: Tuple[int, ...]
    index: Mapping[int, int]


class WeightedGraph:
    """An undirected weighted graph with per-node port numbering.

    The constructor is the one check of the input domain; a value outside
    it raises ``ValueError``.  Every engine reads ``n``, ``N`` and the
    largest weight from the graph.

    Parameters
    ----------
    node_ids:
        Distinct positive integer IDs below :data:`INT_BOUND`; they need
        not be contiguous.
    edges:
        ``(u, v, weight)`` triples.  Weights must be distinct positive
        integers below :data:`INT_BOUND` (distinctness makes the MST
        unique, as the paper assumes).
    max_id:
        The ID bound ``N >= max(node_ids)`` every node knows; defaults to
        ``max(node_ids)``.  Lets experiments vary the ID range
        independently of ``n``.
    """

    def __init__(
        self,
        node_ids: Iterable[int],
        edges: Iterable[Tuple[int, int, int]],
        max_id: Optional[int] = None,
    ) -> None:
        self._node_ids: List[int] = sorted(set(int(x) for x in node_ids))
        if not self._node_ids:
            raise ValueError("graph must have at least one node")
        if self._node_ids[0] < 1:
            raise ValueError("node IDs must be positive integers")

        # Port assignment: each node numbers its incident edges 0..deg-1 in
        # edge-insertion order (an arbitrary but deterministic choice; the
        # algorithms never rely on port semantics), so a node's port table
        # is a list indexed by port.  Edges are checked in the order
        # self-loop, unknown node, duplicate pair, duplicate weight,
        # non-positive weight; the first bad edge raises.
        ports: Dict[int, List[Tuple[int, int, int]]] = {
            node_id: [] for node_id in self._node_ids
        }
        pairs: Dict[Tuple[int, int], int] = {}
        by_weight: Dict[int, int] = {}
        column_u: List[int] = []
        column_v: List[int] = []
        column_weight: List[int] = []
        for u, v, weight in edges:
            u, v, weight = int(u), int(v), int(weight)
            if u == v:
                raise ValueError(f"self-loop at node {u} is not allowed")
            if u > v:
                u, v = v, u
            u_ports = ports.get(u)
            v_ports = ports.get(v)
            if u_ports is None or v_ports is None:
                raise ValueError(
                    f"edge {Edge(weight, u, v)} references unknown node"
                )
            pair = (u, v)
            if pair in pairs:
                raise ValueError(f"duplicate edge between {u} and {v}")
            if weight in by_weight:
                raise ValueError(
                    f"duplicate edge weight {weight}; the paper assumes "
                    "distinct weights (unique MST)"
                )
            if weight < 1:
                raise ValueError("edge weights must be positive integers")
            pairs[pair] = by_weight[weight] = len(column_weight)
            column_u.append(u)
            column_v.append(v)
            column_weight.append(weight)
            pu = len(u_ports)
            pv = len(v_ports)
            u_ports.append((v, pv, weight))
            v_ports.append((u, pu, weight))

        declared_max = self._node_ids[-1]
        if max_id is None:
            max_id = declared_max
        elif max_id < declared_max:
            raise ValueError(f"max_id={max_id} < largest node ID {declared_max}")
        max_weight = max(column_weight, default=1)
        if max(max_id, max_weight) >= INT_BOUND:
            raise ValueError(
                "node IDs, max_id and edge weights must lie below 2**62; "
                f"max_id is {max_id}, the largest weight {max_weight}"
            )
        self._max_id = max_id
        self._max_weight = max_weight
        self._ports = ports
        self._pairs = pairs
        self._columns = EdgeColumns(
            tuple(column_u),
            tuple(column_v),
            tuple(column_weight),
            MappingProxyType(by_weight),
        )
        #: ``Edge`` objects, built on the first call that asks for them.
        self._edges: Optional[List[Edge]] = None

    # ------------------------------------------------------------------
    # Simulator interface
    # ------------------------------------------------------------------

    @property
    def node_ids(self) -> List[int]:
        return list(self._node_ids)

    def ports_of(self, node_id: int) -> Dict[int, Tuple[int, int, int]]:
        """Return ``{port: (neighbour_id, neighbour_port, weight)}``."""
        return dict(enumerate(self._ports[node_id]))

    # ------------------------------------------------------------------
    # Graph queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._node_ids)

    @property
    def m(self) -> int:
        return len(self._columns.weight)

    @property
    def max_id(self) -> int:
        """The ID bound ``N`` every node knows (``NodeContext.max_id``)."""
        return self._max_id

    @property
    def max_weight(self) -> int:
        """The largest edge weight (1 for a graph without edges)."""
        return self._max_weight

    @property
    def edge_columns(self) -> EdgeColumns:
        """The edges as read-only columns (see :class:`EdgeColumns`)."""
        return self._columns

    def _edge_list(self) -> List[Edge]:
        if self._edges is None:
            columns = self._columns
            self._edges = [
                Edge(weight, u, v)
                for u, v, weight in zip(columns.u, columns.v, columns.weight)
            ]
        return self._edges

    def edges(self) -> List[Edge]:
        return list(self._edge_list())

    def edge_weights(self) -> Set[int]:
        return set(self._columns.weight)

    def edge_by_weight(self, weight: int) -> Edge:
        """Weights are distinct, so a weight is a global edge identifier."""
        return self._edge_list()[self._columns.index[weight]]

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._pairs

    def weight(self, u: int, v: int) -> int:
        for neighbour, _, weight in self._ports[u]:
            if neighbour == v:
                return weight
        raise KeyError(f"no edge between {u} and {v}")

    def neighbors(self, node_id: int) -> List[int]:
        return [entry[0] for entry in self._ports[node_id]]

    def degree(self, node_id: int) -> int:
        return len(self._ports[node_id])

    def total_weight(self) -> int:
        return sum(self._columns.weight)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        ports = self._ports
        seen = {self._node_ids[0]}
        stack = [self._node_ids[0]]
        while stack:
            for neighbour, _, _ in ports[stack.pop()]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    stack.append(neighbour)
        return len(seen) == self.n

    def bfs_distances(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` (unweighted BFS)."""
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier: List[int] = []
            for node in frontier:
                for neighbour in self.neighbors(node):
                    if neighbour not in distances:
                        distances[neighbour] = distances[node] + 1
                        next_frontier.append(neighbour)
            frontier = next_frontier
        return distances

    def diameter(self) -> int:
        """Exact hop diameter (O(n·m); fine at experiment scales)."""
        best = 0
        for node in self._node_ids:
            distances = self.bfs_distances(node)
            if len(distances) < self.n:
                raise ValueError("diameter undefined: graph is disconnected")
            best = max(best, max(distances.values()))
        return best

    def __iter__(self) -> Iterator[int]:
        return iter(self._node_ids)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._ports

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightedGraph(n={self.n}, m={self.m}, N={self._max_id})"
