"""WeightedGraph model: construction contracts, ports, queries."""

from __future__ import annotations

import pytest

from repro.graphs import INT_BOUND, Edge, WeightedGraph, path_graph, ring_graph


def triangle():
    return WeightedGraph([1, 2, 3], [(1, 2, 10), (2, 3, 20), (1, 3, 30)])


class TestConstruction:
    def test_rejects_duplicate_weights(self):
        with pytest.raises(ValueError, match="duplicate edge weight"):
            WeightedGraph([1, 2, 3], [(1, 2, 5), (2, 3, 5)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            WeightedGraph([1, 2], [(1, 2, 5), (2, 1, 6)])

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loop"):
            WeightedGraph([1, 2], [(1, 1, 5)])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            WeightedGraph([1, 2], [(1, 3, 5)])

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(ValueError):
            WeightedGraph([0, 1], [(0, 1, 5)])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedGraph([1, 2], [(1, 2, 0)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            WeightedGraph([], [])

    def test_rejects_max_id_below_ids(self):
        with pytest.raises(ValueError):
            WeightedGraph([1, 9], [(1, 9, 3)], max_id=5)

    def test_max_id_defaults_to_largest_id(self):
        graph = WeightedGraph([2, 7], [(2, 7, 1)])
        assert graph.max_id == 7

    def test_explicit_max_id(self):
        graph = WeightedGraph([2, 7], [(2, 7, 1)], max_id=100)
        assert graph.max_id == 100

    @pytest.mark.parametrize(
        "ids, weights, max_id",
        [
            ((1, 2, 3), (2**62, 2**62 - 2, 7), None),
            # Above the bound, and past int64.
            ((1, 2, 3), (2**62 + 5, 2**62 + 3, 7), None),
            ((1, 2, 3), (2**63 + 5, 2**63 + 3, 7), None),
            ((1, 2, 2**62), (2, 3, 7), None),
            ((1, 2, 3), (2, 3, 7), 2**62),
        ],
        ids=[
            "weight-2**62",
            "weight-2**62+5",
            "weight-2**63+5",
            "id-2**62",
            "max_id-2**62",
        ],
    )
    def test_rejects_the_bound(self, ids, weights, max_id):
        # Every engine runs only graphs built here, so none sees a value
        # at or above the bound.
        triangle_edges = zip(ids, ids[1:] + ids[:1], weights)
        with pytest.raises(ValueError, match=r"below 2\*\*62"):
            WeightedGraph(ids, triangle_edges, max_id=max_id)

    def test_accepts_just_below_the_bound(self):
        top = INT_BOUND - 1
        graph = WeightedGraph([1, top], [(1, top, top)], max_id=top)
        assert graph.max_id == graph.max_weight == top == 2**62 - 1


class TestPorts:
    def test_ports_are_contiguous_per_node(self):
        graph = triangle()
        for node in graph.node_ids:
            assert sorted(graph.ports_of(node)) == list(range(graph.degree(node)))

    def test_port_symmetry(self):
        graph = triangle()
        for node in graph.node_ids:
            for port, (neighbour, reverse_port, weight) in graph.ports_of(node).items():
                back = graph.ports_of(neighbour)[reverse_port]
                assert back == (node, port, weight)

    def test_weights_visible_on_both_sides(self):
        graph = triangle()
        assert graph.weight(1, 2) == graph.weight(2, 1) == 10


class TestQueries:
    def test_counts(self):
        graph = triangle()
        assert (graph.n, graph.m) == (3, 3)

    def test_edge_by_weight(self):
        graph = triangle()
        assert graph.edge_by_weight(20).endpoints == (2, 3)

    def test_neighbors(self):
        graph = triangle()
        assert sorted(graph.neighbors(1)) == [2, 3]

    def test_total_weight(self):
        assert triangle().total_weight() == 60

    def test_has_edge(self):
        graph = triangle()
        assert graph.has_edge(1, 2) and graph.has_edge(2, 1)

    def test_weight_missing_edge_raises(self):
        graph = WeightedGraph([1, 2, 3], [(1, 2, 5), (2, 3, 6)])
        with pytest.raises(KeyError):
            graph.weight(1, 3)

    def test_contains_and_iter(self):
        graph = triangle()
        assert 1 in graph and 99 not in graph
        assert sorted(graph) == [1, 2, 3]


class TestStructure:
    def test_connectivity(self):
        assert triangle().is_connected()
        disconnected = WeightedGraph([1, 2, 3, 4], [(1, 2, 5), (3, 4, 6)])
        assert not disconnected.is_connected()

    def test_bfs_distances_on_path(self):
        graph = path_graph(5)
        first = graph.node_ids[0]
        distances = graph.bfs_distances(first)
        assert sorted(distances.values()) == [0, 1, 2, 3, 4]

    def test_diameter_ring(self):
        assert ring_graph(10).diameter() == 5

    def test_diameter_disconnected_raises(self):
        disconnected = WeightedGraph([1, 2, 3, 4], [(1, 2, 5), (3, 4, 6)])
        with pytest.raises(ValueError):
            disconnected.diameter()


class TestEdge:
    def test_normalises_endpoints(self):
        edge = Edge.make(5, 2, 7)
        assert (edge.u, edge.v) == (2, 5)

    def test_other_endpoint(self):
        edge = Edge.make(2, 5, 7)
        assert edge.other(2) == 5
        assert edge.other(5) == 2
        with pytest.raises(ValueError):
            edge.other(9)

    def test_ordering_by_weight(self):
        light, heavy = Edge.make(1, 2, 3), Edge.make(3, 4, 9)
        assert light < heavy
