"""Property tests: the cached/shape-compiled ``CongestPolicy.check`` agrees
with the naive recursive :func:`repro.sim.congest.payload_bits` reference on
randomized payload trees (nested tuples, ``inf`` sentinels, strings), and
the cache structures behave (bounded, type-exact despite Python's
``1 == True == 1.0`` hashing).
"""

from __future__ import annotations

import math
from collections import namedtuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.congest import (
    CACHE_CAPACITY,
    CongestPolicy,
    payload_bits,
    scalar_bits,
)
from repro.sim.errors import CongestViolation

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.sampled_from([math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=0, max_size=12
    ),
)

#: A tuple subclass: sized like a plain tuple, never by the fast path.
Pair = namedtuple("Pair", "a b")

payloads = st.recursive(
    scalars,
    lambda children: st.tuples(children).map(tuple)
    | st.lists(children, min_size=0, max_size=6).map(tuple),
    max_leaves=12,
)


class TestCachedAgreesWithReference:
    @given(payload=payloads)
    @settings(max_examples=300, derandomize=True)
    @example(payload=(1,))
    @example(payload=(True,))
    @example(payload=(1.0,))
    @example(payload=(0, False, 0.0))
    @example(payload=((1,),))
    @example(payload=((True,),))
    @example(payload=("mwoe", 123456, 77, 3))
    @example(payload=("up", 5, math.inf))
    @example(payload=())
    @example(payload=Pair(3, 4))
    @example(payload=(1, Pair(3, 4)))
    def test_check_equals_payload_bits(self, payload):
        policy = CongestPolicy(10**6, strict=False)
        expected = payload_bits(payload)
        assert policy.check(payload) == expected
        # Second call exercises the memo-hit path.
        assert policy.check(payload) == expected

    @given(batch=st.lists(payloads, min_size=1, max_size=40))
    @settings(max_examples=100, derandomize=True)
    def test_shared_policy_across_interleaved_payloads(self, batch):
        """One policy, many payloads, repeated: warm structures stay exact."""
        policy = CongestPolicy(10**9, strict=False)
        for _ in range(2):
            for payload in batch:
                assert policy.check(payload) == payload_bits(payload)

    def test_hash_equal_but_type_distinct_payloads(self):
        """``(1,) == (True,) == (1.0,)`` in Python, but their bit costs differ.

        This is the trap a naive ``payload -> bits`` memo falls into; the
        per-shape routing must keep them apart in either insertion order.
        """
        for first, second, third in (
            ((1,), (True,), (1.0,)),
            ((True,), (1.0,), (1,)),
            ((1.0,), (1,), (True,)),
            (("a", 1), ("a", True), ("a", 1.0)),
        ):
            policy = CongestPolicy(10**6, strict=False)
            for payload in (first, second, third):
                assert policy.check(payload) == payload_bits(payload), payload

    def test_nested_numeric_collisions_never_cached_wrong(self):
        policy = CongestPolicy(10**6, strict=False)
        assert policy.check(((1,), 2)) == payload_bits(((1,), 2))
        assert policy.check(((True,), 2)) == payload_bits(((True,), 2))
        assert policy.check(((1.0,), 2)) == payload_bits(((1.0,), 2))

    def test_unsupported_payloads_still_raise_type_error(self):
        policy = CongestPolicy(100)
        with pytest.raises(TypeError):
            policy.check([1, 2])
        with pytest.raises(TypeError):
            policy.check(({"a": 1},))

    def test_scalar_payloads_bypass_cache(self):
        policy = CongestPolicy(10**6)
        assert policy.check(12345) == scalar_bits(12345)
        assert policy.check("tag") == scalar_bits("tag")
        assert policy.check(None) == scalar_bits(None)


class TestCacheBehaviour:
    def test_memo_is_bounded(self):
        policy = CongestPolicy(10**9, strict=False)
        for i in range(CACHE_CAPACITY * 2 + 10):
            policy.check(("flood", i))
        assert policy._cache_entries <= CACHE_CAPACITY + 1

    def test_memo_stays_correct_across_eviction(self):
        policy = CongestPolicy(10**9, strict=False)
        probes = [("probe", 2**k) for k in range(0, 40, 5)]
        for payload in probes:
            assert policy.check(payload) == payload_bits(payload)
        for i in range(CACHE_CAPACITY + 5):  # force a clear-and-refill
            policy.check(("flood", i))
        for payload in probes:
            assert policy.check(payload) == payload_bits(payload)

    def test_distinct_policies_have_distinct_caches(self):
        a = CongestPolicy(10**6, strict=False)
        b = CongestPolicy(10**6, strict=False)
        a.check(("x", 1))
        assert b._cache_entries == 0


class TestCheckStrict:
    def test_returns_bits_when_within_budget(self):
        policy = CongestPolicy(10**6)
        payload = ("mwoe", 10**6, 42, 3)
        assert policy.check_strict(payload) == payload_bits(payload)

    def test_raises_in_strict_mode_when_over(self):
        policy = CongestPolicy(100, strict=True)
        oversized = tuple(range(500))
        with pytest.raises(CongestViolation) as excinfo:
            policy.check_strict(oversized, node_id=7, port=2)
        assert excinfo.value.node_id == 7
        assert excinfo.value.port == 2
        assert excinfo.value.bits == payload_bits(oversized)

    def test_lenient_mode_only_measures(self):
        policy = CongestPolicy(100, strict=False)
        oversized = tuple(range(500))
        assert policy.check_strict(oversized) == payload_bits(oversized)

    def test_check_never_raises_on_oversized(self):
        """``check`` measures only — the docstring's contract."""
        policy = CongestPolicy(100, strict=True)
        bits = policy.check(tuple(range(500)))
        assert policy.is_over_budget(bits)
