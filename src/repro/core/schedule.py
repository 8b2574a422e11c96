"""``Transmission-Schedule`` — the paper's wake-up timetable (Appendix B).

Every LDT procedure runs inside a *block* of ``2n + 2`` consecutive rounds.
Within a block starting at absolute round ``start``, a node whose distance
from its fragment root is ``level`` uses five named offsets (1-based within
the block; absolute round = ``start + offset - 1``):

=================  =====================  =============================
Name               Offset                 Purpose
=================  =====================  =============================
Down-Receive       ``level``              hear from parent
Down-Send          ``level + 1``          forward to children
Side-Send-Receive  ``n + 1``              talk to adjacent fragments
Up-Receive         ``2n - level + 1``     hear from children
Up-Send            ``2n - level + 2``     forward to parent
=================  =====================  =============================

The root (``level == 0``) uses Down-Send = 1, Side = ``n + 1`` and
Up-Receive = ``2n + 1`` — exactly the formulas above evaluated at level 0,
so a single set of functions serves every node.  Because a child at level
``i + 1`` has Down-Receive ``i + 1`` = its parent's Down-Send, information
flows one hop per round down the tree, and symmetrically up; and because
*every* node shares Side-Send-Receive = ``n + 1``, adjacent fragments are
awake simultaneously there — the property that makes ``Transmit-Adjacent``
possible in one awake round.

The paper's block occupies offsets ``1 .. 2n + 1``; we reserve one padding
round so that blocks have even length ``2n + 2`` and never abut.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from typing import Any, Tuple


def block_span(n: int) -> int:
    """Number of rounds one Transmission-Schedule block occupies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 * n + 2


def down_receive_offset(level: int) -> int:
    """Offset in which a level-``level`` node hears from its parent."""
    if level < 1:
        raise ValueError("the root has no Down-Receive round")
    return level


def down_send_offset(level: int) -> int:
    """Offset in which a level-``level`` node forwards to its children."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return level + 1


def side_offset(n: int) -> int:
    """The Side-Send-Receive offset, shared by every node in the network."""
    return n + 1


def up_receive_offset(n: int, level: int) -> int:
    """Offset in which a level-``level`` node hears from its children."""
    if level < 0:
        raise ValueError("level must be >= 0")
    return 2 * n - level + 1


def up_send_offset(n: int, level: int) -> int:
    """Offset in which a level-``level`` node forwards to its parent."""
    if level < 1:
        raise ValueError("the root has no Up-Send round")
    return 2 * n - level + 2


class Block:
    """One scheduled block: absolute start round plus the network size.

    Provides absolute round numbers for each named offset of a node at a
    given level, so protocol code reads like the paper's prose.

    Immutable and hashable like a frozen dataclass (assignment and
    deletion raise :class:`dataclasses.FrozenInstanceError`; ``==``,
    ``hash`` and ``repr`` use both fields), but a plain ``__slots__``
    class, which is cheaper to construct: every node takes a block per
    procedure (``docs/performance.md``, "Coroutine hot path").
    """

    __slots__ = ("start", "n")

    def __init__(self, start: int, n: int) -> None:
        _set_block_start(self, start)
        _set_block_n(self, n)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.start, self.n) == (other.start, other.n)

    def __hash__(self) -> int:
        return hash((self.start, self.n))

    def __repr__(self) -> str:
        return f"Block(start={self.start!r}, n={self.n!r})"

    def __reduce__(self) -> Tuple[Any, ...]:
        return (Block, (self.start, self.n))

    def _absolute(self, offset: int) -> int:
        if not 1 <= offset <= 2 * self.n + 1:
            raise ValueError(
                f"offset {offset} outside block of span {block_span(self.n)}"
            )
        return self.start + offset - 1

    def down_receive(self, level: int) -> int:
        return self._absolute(down_receive_offset(level))

    def down_send(self, level: int) -> int:
        return self._absolute(down_send_offset(level))

    def side(self) -> int:
        return self._absolute(side_offset(self.n))

    def up_receive(self, level: int) -> int:
        return self._absolute(up_receive_offset(self.n, level))

    def up_send(self, level: int) -> int:
        return self._absolute(up_send_offset(self.n, level))

    @property
    def end(self) -> int:
        """Last round of the block (inclusive, counting the padding round)."""
        return self.start + block_span(self.n) - 1


# Writing through the slot descriptors skips the raising ``__setattr__``
# and is cheaper than ``object.__setattr__``.
_set_block_start = Block.start.__set__  # type: ignore[attr-defined]
_set_block_n = Block.n.__set__  # type: ignore[attr-defined]


class BlockClock:
    """A deterministic allocator of consecutive blocks.

    Every node constructs an identical clock (all nodes know ``n`` and the
    globally fixed phase plan), so the ``k``-th call to :meth:`take` returns
    the same block at every node — this is what keeps fragments aligned for
    ``Transmit-Adjacent`` without any coordination messages.
    """

    def __init__(self, n: int, start: int = 1) -> None:
        if start < 1:
            raise ValueError("start round must be >= 1")
        self.n = n
        self.span = block_span(n)
        self._next_start = start

    def take(self) -> Block:
        """Allocate and return the next block."""
        block = Block(self._next_start, self.n)
        self._next_start += self.span
        return block

    def skip(self, count: int = 1) -> None:
        """Advance past ``count`` blocks without using them.

        Used by nodes that do not participate in a stage (e.g. most stages
        of ``Fast-Awake-Coloring``): they stay asleep for the whole block
        but keep their clock aligned with everyone else's.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        self._next_start += count * self.span

    @property
    def next_start(self) -> int:
        return self._next_start
