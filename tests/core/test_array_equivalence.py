"""Property testing: coroutine engine ≡ array engine on random cells.

Hypothesis draws (family, n, seed, termination) cells at n <= 64 on the
perfect channel — the array backend's full supported envelope — and both
backends must agree on every observable: the MST edge set, the whole
``Metrics.summary()``, and each node's ``NodeMetrics`` (awake rounds,
messages and bits each way, last awake round) in the same node order.
A second property draws CONGEST budgets around the payload sizes (and,
for half the cells, weights of 1 to 40 bits), so that some phases exceed
the budget in some blocks only: strict runs must raise the same error,
lenient runs count the same violations.  A third draws cells from the
whole accepted input domain (weights, sparse IDs and declared ID bounds
up to 2**62 - 1) and, on small cells, holds both engines to the naive
round-by-round engine as well.  This is the same differential-testing
posture as :mod:`tests.sim.test_reference_engine` (sparse vs dense
engine), one level up the stack.
"""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core import randomized_mst_protocol, run_randomized_mst
from repro.graphs import INT_BOUND, WeightedGraph, mst_weight_set
from repro.orchestrator import GRAPH_FAMILIES
from repro.sim.errors import CongestViolation
from repro.sim.reference import simulate_dense

FAMILIES = ("path", "ring", "star", "complete", "grid", "gnp", "geometric")

cells = st.tuples(
    st.sampled_from(FAMILIES),
    st.integers(min_value=3, max_value=64),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from(("adaptive", "fixed")),
)


@given(cell=cells)
@settings(max_examples=30, deadline=None)
def test_backends_agree_on_random_cells(cell):
    family, n, seed, termination = cell
    graph = GRAPH_FAMILIES[family](n, seed, None)
    coroutine = run_randomized_mst(graph, seed=seed, termination=termination)
    array = run_randomized_mst(
        graph, seed=seed, termination=termination, engine="array"
    )

    assert array.mst_weights == coroutine.mst_weights
    assert array.mst_weights == mst_weight_set(graph)
    assert array.metrics.summary() == coroutine.metrics.summary()
    for node in graph.node_ids:
        assert (
            array.metrics.per_node[node].awake_rounds
            == coroutine.metrics.per_node[node].awake_rounds
        ), f"awake count diverged at node {node}"
    # Every per-node field, in the same insertion order (sorted node IDs).
    per_node = [
        [
            (node, metrics.as_dict())
            for node, metrics in result.metrics.per_node.items()
        ]
        for result in (coroutine, array)
    ]
    assert per_node[0] == per_node[1]


def congest_outcome(graph, seed, congest_factor, strict, engine):
    """``("raised", (node_id, port, bits, budget))`` or ``("ran",
    summary)`` for one Randomized-MST run under a CONGEST budget."""
    try:
        result = run_randomized_mst(
            graph,
            seed=seed,
            congest_factor=congest_factor,
            strict_congest=strict,
            engine=engine,
        )
    except CongestViolation as error:
        return "raised", (error.node_id, error.port, error.bits, error.budget)
    return "ran", result.metrics.summary()


def with_wide_weights(graph, seed):
    """``graph`` with distinct weights of 1 to 40 bits, log-uniform.

    The family generators give weights of similar bit lengths, so the
    first over-budget message is nearly always a side exchange's.  Wide
    weights make an upcast or broadcast payload outgrow the side
    payloads before it, in a later phase.
    """
    rng = Random(seed)
    weights = set()
    columns = graph.edge_columns
    while len(weights) < len(columns.weight):
        bits = rng.randint(1, 40)
        weights.add(rng.randrange(1 << (bits - 1), 1 << bits))
    weights = rng.sample(sorted(weights), len(weights))
    return WeightedGraph(
        sorted(graph.node_ids), list(zip(columns.u, columns.v, weights))
    )


@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=3, max_value=32),
    seed=st.integers(min_value=0, max_value=10**6),
    congest_factor=st.floats(min_value=0.05, max_value=2.0),
    strict=st.booleans(),
    wide_weights=st.booleans(),
)
# The first over-budget message is an upcast's, from the deeper of two
# over-budget senders.
@example(
    family="complete",
    n=20,
    seed=244406,
    congest_factor=0.72,
    strict=True,
    wide_weights=True,
)
# The first over-budget message is a broadcast's, from the shallower of
# two over-budget senders.
@example(
    family="path",
    n=10,
    seed=254264,
    congest_factor=1.01,
    strict=True,
    wide_weights=True,
)
@settings(max_examples=100, deadline=None)
def test_congest_outcomes_agree_across_budgets(
    family, n, seed, congest_factor, strict, wide_weights
):
    """Strict: the same ``(node_id, port, bits, budget)`` or no error on
    either engine.  Lenient: equal summaries, ``congest_violations`` and
    ``max_message_bits`` included."""
    graph = GRAPH_FAMILIES[family](n, seed, None)
    if wide_weights:
        graph = with_wide_weights(graph, seed)
    coroutine = congest_outcome(graph, seed, congest_factor, strict, None)
    array = congest_outcome(graph, seed, congest_factor, strict, "array")
    if not strict:
        assert coroutine[0] == "ran"
    assert array == coroutine


@pytest.mark.parametrize("strict", [True, False])
def test_congest_outcomes_agree_when_the_id_bound_sets_the_budget(strict):
    """Ring n=16 with IDs drawn below 256 (the largest is 226) and weights
    below 113: the declared ``N = 256`` sets ``max(n, N, W)``, so both
    engines budget ``2 * ceil(log2 257) = 18`` bits, not 16."""
    graph = GRAPH_FAMILIES["ring"](16, 0, 256)
    assert max(graph.n, *graph.node_ids, graph.max_weight) < graph.max_id
    coroutine = congest_outcome(graph, 0, 2, strict, None)
    array = congest_outcome(graph, 0, 2, strict, "array")
    assert array == coroutine
    if strict:
        assert coroutine[0] == "raised" and coroutine[1][3] == 18
    else:
        assert coroutine[1]["congest_violations"] > 0


@given(
    family=st.sampled_from(FAMILIES),
    n=st.integers(min_value=3, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    id_range=st.one_of(
        st.none(), st.integers(min_value=24, max_value=INT_BOUND - 1)
    ),
    declared=st.booleans(),
    extremes=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_engines_agree_across_the_input_domain(
    family, n, seed, id_range, declared, extremes
):
    """Any graph :class:`WeightedGraph` accepts runs identically on both
    engines: sparse IDs up to 2**62 - 1 (``id_range``), a declared ``N``
    above the largest ID or equal to it (``declared``), and distinct
    weights of 1 to 62 bits, log-uniform, with both ends of the domain
    (``extremes``: 1 and 2**62 - 1).  Up to n = 12 the naive
    round-by-round engine agrees on rounds, awake counts and messages
    too."""
    drawn = GRAPH_FAMILIES[family](n, seed, id_range)
    columns = drawn.edge_columns
    rng = Random(seed)
    weights = {1, INT_BOUND - 1} if extremes else set()
    while len(weights) < len(columns.weight):
        bits = rng.randint(1, 62)
        weights.add(rng.randrange(1 << (bits - 1), 1 << bits))
    graph = WeightedGraph(
        drawn.node_ids,
        zip(columns.u, columns.v, rng.sample(sorted(weights), len(weights))),
        max_id=drawn.max_id if declared else None,
    )
    coroutine = run_randomized_mst(graph, seed=seed)
    array = run_randomized_mst(graph, seed=seed, engine="array")
    assert array.mst_weights == coroutine.mst_weights == mst_weight_set(graph)
    assert array.node_outputs == coroutine.node_outputs
    assert array.metrics.summary() == coroutine.metrics.summary()
    per_node = [
        [
            (node, metrics.as_dict())
            for node, metrics in result.metrics.per_node.items()
        ]
        for result in (coroutine, array)
    ]
    assert per_node[0] == per_node[1]
    if graph.n <= 12:
        dense = simulate_dense(graph, randomized_mst_protocol, seed=seed)
        metrics = coroutine.metrics
        assert dense.rounds == metrics.rounds
        assert dense.awake_rounds == {
            node: node_metrics.awake_rounds
            for node, node_metrics in metrics.per_node.items()
        }
        assert dense.messages_delivered == metrics.messages_delivered
        assert dense.messages_lost == metrics.messages_lost


@given(seed=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=15, deadline=None)
def test_coin_sequences_agree_across_seeds(seed):
    """Merge structure is coin-driven: any RNG drift shows up as a phase
    count or per-node awake difference long before outputs differ."""
    graph = GRAPH_FAMILIES["gnp"](32, seed % 17, None)
    coroutine = run_randomized_mst(graph, seed=seed)
    array = run_randomized_mst(graph, seed=seed, engine="array")
    assert array.phases == coroutine.phases
    assert array.metrics.max_awake == coroutine.metrics.max_awake
    assert array.metrics.total_bits == coroutine.metrics.total_bits
