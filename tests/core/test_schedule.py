"""Transmission-Schedule offsets, blocks, and alignment invariants."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Block,
    BlockClock,
    block_span,
    down_receive_offset,
    down_send_offset,
    side_offset,
    up_receive_offset,
    up_send_offset,
)


class TestOffsets:
    def test_paper_values_for_nonroot(self):
        """The exact offsets of Appendix B for a node at distance i."""
        n, i = 10, 4
        assert down_receive_offset(i) == i
        assert down_send_offset(i) == i + 1
        assert side_offset(n) == n + 1
        assert up_receive_offset(n, i) == 2 * n - i + 1
        assert up_send_offset(n, i) == 2 * n - i + 2

    def test_paper_values_for_root(self):
        """Root: Down-Send 1, Side n+1, Up-Receive 2n+1 — the level-0 case."""
        n = 10
        assert down_send_offset(0) == 1
        assert up_receive_offset(n, 0) == 2 * n + 1

    def test_root_has_no_receive_from_parent(self):
        with pytest.raises(ValueError):
            down_receive_offset(0)
        with pytest.raises(ValueError):
            up_send_offset(5, 0)

    @given(
        n=st.integers(min_value=2, max_value=200),
        level=st.integers(min_value=1, max_value=199),
    )
    def test_parent_child_alignment(self, n, level):
        """The chaining property: information moves one hop per round."""
        if level > n - 1:
            level = n - 1
        # Child's Down-Receive equals parent's Down-Send.
        assert down_receive_offset(level) == down_send_offset(level - 1)
        # Parent's Up-Receive equals child's Up-Send.
        assert up_receive_offset(n, level - 1) == up_send_offset(n, level)

    @given(
        n=st.integers(min_value=2, max_value=200),
        level=st.integers(min_value=1, max_value=199),
    )
    def test_offsets_strictly_ordered_within_block(self, n, level):
        """Down < Side < Up for every node — procedures never collide."""
        if level > n - 1:
            level = n - 1
        assert (
            down_receive_offset(level)
            < down_send_offset(level)
            <= side_offset(n)
            <= up_receive_offset(n, level)
            < up_send_offset(n, level)
            <= block_span(n) - 1
        )

    def test_side_round_is_network_global(self):
        """Every node, any level, shares the same Side offset."""
        n = 17
        assert side_offset(n) == n + 1  # independent of level by definition


class TestBlock:
    def test_absolute_rounds(self):
        block = Block(start=100, n=5)
        assert block.down_send(0) == 100
        assert block.side() == 105
        assert block.up_receive(0) == 110
        assert block.end == 111

    def test_rejects_out_of_block_offsets(self):
        block = Block(start=1, n=3)
        with pytest.raises(ValueError):
            block.down_receive(10)

    def test_rejects_invalid_levels(self):
        block = Block(start=1, n=3)
        with pytest.raises(ValueError):
            block.down_receive(0)
        with pytest.raises(ValueError):
            block.up_send(0)
        with pytest.raises(ValueError):
            block.down_send(-1)

    def test_positional_and_keyword_construction_agree(self):
        assert Block(100, 5) == Block(start=100, n=5)

    def test_equality_and_hash(self):
        assert Block(1, 3) == Block(1, 3)
        assert Block(1, 3) != Block(9, 3)
        assert Block(1, 3) != Block(1, 4)
        assert Block(1, 3) != (1, 3)
        assert hash(Block(1, 3)) == hash(Block(1, 3)) == hash((1, 3))
        assert len({Block(1, 3), Block(1, 3), Block(9, 3)}) == 2

    def test_repr(self):
        assert repr(Block(start=100, n=5)) == "Block(start=100, n=5)"

    def test_frozen(self):
        block = Block(start=1, n=3)
        with pytest.raises(FrozenInstanceError):
            block.start = 2
        with pytest.raises(FrozenInstanceError):
            block.n = 4
        with pytest.raises(FrozenInstanceError):
            del block.start
        assert block == Block(1, 3)

    def test_pickle_round_trip(self):
        block = Block(start=8, n=3)
        assert pickle.loads(pickle.dumps(block)) == block


class TestBlockClock:
    def test_take_builds_the_same_block_as_keywords(self):
        clock = BlockClock(n=4, start=3)
        assert clock.take() == Block(start=3, n=4)
        assert clock.take() == Block(start=3 + block_span(4), n=4)

    def test_consecutive_blocks_abut(self):
        clock = BlockClock(n=4)
        first, second = clock.take(), clock.take()
        assert second.start == first.end + 1

    def test_skip_advances_without_allocating(self):
        reference = BlockClock(n=4)
        for _ in range(3):
            reference.take()
        skipping = BlockClock(n=4)
        skipping.skip(3)
        assert skipping.take().start == reference.take().start

    def test_identical_clocks_align(self):
        """Two nodes constructing the same clock take the same blocks —
        the alignment property Transmit-Adjacent relies on."""
        a, b = BlockClock(n=9), BlockClock(n=9)
        for _ in range(5):
            assert a.take().start == b.take().start

    def test_rejects_bad_start(self):
        with pytest.raises(ValueError):
            BlockClock(n=4, start=0)

    def test_rejects_negative_skip(self):
        with pytest.raises(ValueError):
            BlockClock(n=4).skip(-1)

    def test_block_span_too_small_n(self):
        with pytest.raises(ValueError):
            block_span(0)
