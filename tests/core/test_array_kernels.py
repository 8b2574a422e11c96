"""The array engine's pointer-doubling kernels against brute force.

Hypothesis draws parent-pointer forests of up to 300 nodes, from bushy
random trees to single paths (depth up to 299, nine doubling steps), and
int64 values that include :data:`repro.core.array_ops.INT_NOTHING`.
:func:`ancestor_jumps` must hold exactly the ``2**k``-th ancestors, with
``ceil(log2(max depth + 1))`` entries, and :func:`subtree_min` must
equal a walk up each node's ancestors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

np = pytest.importorskip("numpy")

from repro.core.array_ops import INT_NOTHING, ancestor_jumps, subtree_min


@st.composite
def forests(draw):
    """``(parent, values)``: a relabelled random forest and int64 values.

    Node ``v`` of the unlabelled forest hangs off ``v - 1`` with
    probability ``chain`` (1.0 gives a path), else off a uniform earlier
    node or nowhere; a random permutation then relabels the nodes.
    """
    n = draw(st.integers(min_value=1, max_value=300))
    chain = draw(st.sampled_from((0.0, 0.5, 0.9, 1.0)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    parent = np.full(n, -1, dtype=np.int64)
    for v in range(1, n):
        parent[v] = v - 1 if rng.random() < chain else rng.integers(-1, v)
    perm = rng.permutation(n)
    relabelled = np.full(n, -1, dtype=np.int64)
    relabelled[perm] = np.where(parent >= 0, perm[parent], -1)
    values = rng.integers(-(2**40), 2**40, size=n, dtype=np.int64)
    values[rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0)))] = INT_NOTHING
    return relabelled, values


def ancestors(parent, v):
    """``v``'s ancestors, nearest first."""
    chain = []
    v = int(parent[v])
    while v >= 0:
        chain.append(v)
        v = int(parent[v])
    return chain


@given(forest=forests())
@settings(max_examples=60, deadline=None)
def test_jump_table_holds_power_of_two_ancestors(forest):
    parent, _ = forest
    chains = [ancestors(parent, v) for v in range(parent.size)]
    max_depth = max(len(chain) for chain in chains)
    jumps = ancestor_jumps(parent)
    assert len(jumps) == max_depth.bit_length()  # ceil(log2(depth + 1))
    for k, (nodes, up) in enumerate(jumps):
        hop = 2**k
        expected = {
            v: chain[hop - 1] for v, chain in enumerate(chains) if len(chain) >= hop
        }
        assert dict(zip(nodes.tolist(), up.tolist())) == expected


@given(forest=forests())
@settings(max_examples=60, deadline=None)
def test_subtree_min_matches_ancestor_walk(forest):
    parent, values = forest
    before = values.copy()
    expected = values.tolist()
    for v, value in enumerate(values.tolist()):
        for a in ancestors(parent, v):
            expected[a] = min(expected[a], value)
    combined = subtree_min(ancestor_jumps(parent), values)
    assert combined.tolist() == expected
    assert np.array_equal(values, before)  # the input is not reduced in place
