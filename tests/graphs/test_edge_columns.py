"""The column view of a graph, and who builds ``Edge`` objects.

A graph stores its edges as columns; ``Edge`` objects exist only for
callers that ask for them.  The count guard below pins that building
every registry family and running a whole cell on either engine builds
none: the per-cell consumers (``ArrayGraph``, input and output
validation, the reference MST weight set, the MIS independence monitor)
read the columns.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.graphs import (
    Edge,
    WeightedGraph,
    check_local_mst_outputs,
    mst_weight_set,
    prim_mst,
    random_connected_graph,
)
from repro.orchestrator import GRAPH_FAMILIES, execute_with_policy, expand_grid


@pytest.fixture
def edge_count(monkeypatch):
    """A one-item list holding the number of ``Edge`` constructions."""
    count = [0]
    original = Edge.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Edge, "__init__", counting_init)
    return count


def run_cell(**kwargs):
    (spec,) = expand_grid(algorithms=["randomized"], **kwargs)
    record = execute_with_policy(spec)
    assert record.status == "ok", record.error
    assert record.metrics["correct"]
    return record


class TestCountGuard:
    def test_building_every_family_builds_no_edge(self, edge_count):
        for family, factory in sorted(GRAPH_FAMILIES.items()):
            graph = factory(64, 1, None)
            assert graph.m > 0, family
        GRAPH_FAMILIES["gnp"](64, 1, 640)
        assert edge_count[0] == 0

    def test_array_cell_builds_no_edge(self, edge_count):
        pytest.importorskip("numpy")
        run_cell(families=["grid"], sizes=[512], seeds=[1], engine="array")
        assert edge_count[0] == 0

    def test_coroutine_cell_builds_no_edge(self, edge_count):
        run_cell(families=["gnp"], sizes=[32], seeds=[1])
        assert edge_count[0] == 0

    def test_monitored_mis_cell_builds_no_edge(self, edge_count):
        run_cell(
            families=["gnp"], sizes=[24], seeds=[1], problem="mis", monitors="all"
        )
        assert edge_count[0] == 0

    def test_edges_are_built_once_on_first_request(self, edge_count):
        graph = random_connected_graph(24, seed=3)
        assert edge_count[0] == 0
        first = graph.edges()
        assert edge_count[0] == graph.m
        assert graph.edges() == first
        assert graph.edge_by_weight(first[-1].weight) is first[-1]
        assert edge_count[0] == graph.m


class TestEdgeColumns:
    def test_columns_match_edges_in_insertion_order(self):
        graph = WeightedGraph(
            [1, 2, 3, 4], [(2, 1, 30), (3, 4, 10), (4, 2, 20)]
        )
        columns = graph.edge_columns
        assert columns.u == (1, 3, 2)
        assert columns.v == (2, 4, 4)
        assert columns.weight == (30, 10, 20)
        assert dict(columns.index) == {30: 0, 10: 1, 20: 2}
        assert [(e.weight, e.u, e.v) for e in graph.edges()] == list(
            zip(columns.weight, columns.u, columns.v)
        )

    def test_columns_are_read_only(self):
        columns = random_connected_graph(12, seed=1).edge_columns
        assert isinstance(columns.u, tuple)
        assert isinstance(columns.weight, tuple)
        with pytest.raises(TypeError):
            columns.index[10**9] = 0
        with pytest.raises(AttributeError):
            columns.u = ()

    def test_empty_graph_has_empty_columns(self):
        columns = WeightedGraph([5], []).edge_columns
        assert (columns.u, columns.v, columns.weight) == ((), (), ())


class TestColumnConsumers:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_mst_weight_set_matches_prim(self, family):
        graph = GRAPH_FAMILIES[family](40, 2, None)
        assert mst_weight_set(graph) == {
            edge.weight for edge in prim_mst(graph)
        }

    def test_mst_weight_set_rejects_disconnected_graph(self):
        graph = WeightedGraph([1, 2, 3, 4], [(1, 2, 5), (3, 4, 6)])
        with pytest.raises(ValueError, match="disconnected"):
            mst_weight_set(graph)

    @pytest.mark.parametrize("bad", [(1, 4), (2, 5), (4, 11)])
    def test_array_graph_rejects_columns_naming_no_node(self, bad):
        pytest.importorskip("numpy")
        from repro.sim.array_engine import ArrayGraph

        graph = WeightedGraph([2, 4, 9], [(2, 4, 1), (4, 9, 2)])
        columns = graph.edge_columns._replace(u=(bad[0], 4), v=(bad[1], 9))
        broken = SimpleNamespace(
            node_ids=graph.node_ids,
            edge_columns=columns,
            max_id=graph.max_id,
            max_weight=graph.max_weight,
        )
        with pytest.raises(ValueError, match="asymmetric port table"):
            ArrayGraph(broken)

    def test_output_check_names_both_endpoints(self):
        graph = WeightedGraph([1, 2, 3], [(1, 2, 7), (3, 2, 5)])
        with pytest.raises(AssertionError) as caught:
            check_local_mst_outputs(graph, {1: {7}, 2: {7, 5}, 3: set()})
        assert str(caught.value) == (
            "endpoints disagree on edge weight 5: 2 reported=True, "
            "3 reported=False"
        )

    def test_output_check_names_foreign_weights(self):
        graph = WeightedGraph([1, 2, 3], [(1, 2, 7), (2, 3, 5)])
        with pytest.raises(AssertionError, match=r"non-incident edge weights \[5, 8\]"):
            check_local_mst_outputs(graph, {1: {7, 5, 8}, 2: {7}, 3: set()})
