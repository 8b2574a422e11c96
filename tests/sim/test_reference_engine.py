"""Differential testing: sparse engine ≡ naive round-by-round engine.

Random protocols (hypothesis-generated schedules and payloads) run under
both :class:`repro.sim.SleepingSimulator` and the deliberately naive
:func:`repro.sim.reference.simulate_dense`; every observable — results,
total rounds, per-node awake counts, delivered/lost message counts — must
match exactly.  The real algorithms are cross-checked too.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core import randomized_mst_protocol
from repro.graphs import (
    path_graph,
    random_connected_graph,
    ring_graph,
    star_graph,
)
from repro.sim import Awake, simulate
from repro.sim.reference import simulate_dense


def compare(graph, factory, seed=0):
    sparse = simulate(graph, factory, seed=seed)
    dense = simulate_dense(graph, factory, seed=seed)
    assert sparse.node_results == dense.node_results
    assert sparse.metrics.rounds == dense.rounds
    for node in graph.node_ids:
        assert (
            sparse.metrics.per_node[node].awake_rounds
            == dense.awake_rounds[node]
        )
    assert sparse.metrics.messages_delivered == dense.messages_delivered
    assert sparse.metrics.messages_lost == dense.messages_lost


schedule_lists = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=25), min_size=1, max_size=5, unique=True
    ).map(sorted),
    min_size=6,
    max_size=6,
)


@given(schedules=schedule_lists)
def test_random_schedules_agree(schedules):
    graph = ring_graph(6, seed=3)
    by_node = dict(zip(sorted(graph.node_ids), schedules))

    def factory(ctx):
        def protocol():
            heard = []
            for round_number in by_node[ctx.node_id]:
                inbox = yield Awake(
                    round_number, ctx.broadcast((ctx.node_id, round_number))
                )
                heard.extend(inbox.items())
            return heard

        return protocol()

    compare(graph, factory)


def test_same_round_senders_step_in_ascending_id_order():
    """Nodes due in one round step in ascending ID order, whatever order
    they scheduled it in: the hub hears its leaves in that order."""
    graph = star_graph(6, seed=3)
    top = max(graph.node_ids)
    meet = 2 * top + 2

    def factory(ctx):
        def protocol():
            if ctx.degree > 1:
                inbox = yield Awake(meet)
                return list(inbox.items())
            # The highest ID wakes first, so the leaves schedule the
            # shared round in descending ID order.
            yield Awake(top + 1 - ctx.node_id)
            yield Awake(meet, ctx.broadcast(ctx.node_id))
            return None

        return protocol()

    compare(graph, factory)
    (hub,) = [node for node in graph.node_ids if len(graph.ports_of(node)) > 1]
    leaves = [leaf for _, leaf in simulate(graph, factory).node_results[hub]]
    assert len(leaves) == 5
    assert leaves == sorted(leaves)


@given(seed=st.integers(min_value=0, max_value=10**6))
def test_randomness_agrees(seed):
    """Both engines derive identical per-node RNGs from the seed."""
    graph = path_graph(4, seed=1)

    def factory(ctx):
        def protocol():
            inbox = yield Awake(
                1 + ctx.rng.randrange(3), ctx.broadcast(ctx.rng.randrange(100))
            )
            return sorted(inbox.values())

        return protocol()

    compare(graph, factory, seed=seed)


def test_nodes_know_the_declared_id_bound():
    """Every node's ``ctx.max_id`` is the ``N`` the graph declares (256),
    not its largest drawn ID (226), under both engines."""
    graph = ring_graph(16, seed=0, id_range=256)
    assert max(graph.node_ids) < graph.max_id == 256

    def factory(ctx):
        def protocol():
            yield Awake(1)
            return ctx.max_id

        return protocol()

    expected = dict.fromkeys(graph.node_ids, 256)
    assert simulate(graph, factory).node_results == expected
    assert simulate_dense(graph, factory).node_results == expected


def test_full_mst_run_agrees():
    """The flagship algorithm itself, under both engines."""
    graph = random_connected_graph(12, 0.25, seed=5)
    compare(graph, randomized_mst_protocol, seed=2)


def test_mst_on_ring_agrees():
    graph = ring_graph(10, seed=6)
    compare(graph, randomized_mst_protocol, seed=1)
