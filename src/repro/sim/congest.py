"""CONGEST message-size accounting.

The CONGEST model restricts every message to ``O(log n)`` bits.  Protocol
payloads in this library are "flat" Python values — ``None``, ``bool``,
``int``, ``float`` (used only for ``math.inf`` sentinels), short ``str``
tags, and (possibly nested) tuples of those.  :func:`payload_bits` estimates
the number of bits needed to encode such a payload; the engine compares the
estimate against a budget of ``congest_factor * ceil(log2(universe))`` bits,
where *universe* bounds the magnitudes appearing in the protocol (node IDs,
edge weights, round offsets — all polynomial in ``n`` for the algorithms in
this library).

The estimate is deliberately simple and deterministic: each scalar field
costs ``ceil(log2(|value| + 2))`` bits plus a small per-field tag, and tuples
cost the sum of their fields.  The point is not bit-exact wire encoding but a
faithful *asymptotic* check: a payload that smuggles ``Θ(n)`` values through
one edge in one round will blow the budget, while the paper's constant-field
messages always fit.

Performance
-----------
:func:`payload_bits` is the naive recursive reference definition; it is the
engine's single hottest call (one per message) on highly repetitive payload
shapes, so :meth:`CongestPolicy.check` layers two accelerations on top of
it, both proven equivalent by the property tests in
``tests/sim/test_congest_cache.py``:

* a **shape-compiled fast path**: flat tuples of scalars are sized by a
  per-shape compiled summing function (shape = the tuple of exact element
  classes), skipping the recursion, ``isinstance`` dispatch, and generator
  overhead of the reference;
* a **bounded per-shape value memo** mapping ``payload -> bits``.  The
  memos are routed by the exact element classes because Python hashes
  ``1``, ``1.0`` and ``True`` identically even though their bit costs
  differ — a single ``payload -> bits`` dict would conflate them, but
  within one shape's memo every key has identical element classes, so
  payload-equality implies bit-equality.

Payloads containing nested tuples (or any unsupported class), and tuple
subclasses such as namedtuples, fall back to the reference recursion and
are never cached, so the fast structures only ever hold flat, hashable
tuples.

The engine adds one more saving on top of :meth:`CongestPolicy.check`: it
sizes each payload *object* once per sender per round.  A send whose
payload ``is`` the previous port's payload reuses that port's bits, so a
broadcast built with ``dict.fromkeys(ctx.ports, payload)`` (or
``ctx.broadcast``) costs one ``check`` however many ports it has.  Reuse
is decided by identity, never by equality, for the same reason the memos
are routed by shape: ``(1,) == (True,)`` but their sizes differ.  Every
message is still charged its bits.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Optional, Tuple

#: Bits charged per scalar field for type tags / framing.
FIELD_OVERHEAD_BITS = 2

#: Default multiplier applied to ``ceil(log2 universe)`` to form the budget.
#: The paper's messages carry a constant number of IDs/weights/levels, each
#: ``O(log n)`` bits, so a generous constant factor is appropriate.
DEFAULT_CONGEST_FACTOR = 16


def scalar_bits(value: Any) -> int:
    """Return the estimated encoding size in bits of a scalar payload field.

    ``None`` and booleans cost one bit plus overhead; integers cost their
    binary magnitude; infinities (used as +/- infinity sentinels in
    ``Upcast-Min``) cost one bit; short strings (protocol tags) cost 8 bits
    per character.
    """
    if value is None or isinstance(value, bool):
        return 1 + FIELD_OVERHEAD_BITS
    if isinstance(value, int):
        return max(1, (abs(value)).bit_length()) + 1 + FIELD_OVERHEAD_BITS
    if isinstance(value, float):
        if math.isinf(value):
            return 1 + FIELD_OVERHEAD_BITS
        return 64 + FIELD_OVERHEAD_BITS
    if isinstance(value, str):
        return 8 * len(value) + FIELD_OVERHEAD_BITS
    raise TypeError(
        f"unsupported payload field type {type(value).__name__!r}; "
        "protocol payloads must be None/bool/int/float/str or tuples thereof"
    )


def payload_bits(payload: Any) -> int:
    """Return the estimated encoding size in bits of a full payload.

    Tuples are flattened recursively; every other value is treated as a
    scalar via :func:`scalar_bits`.
    """
    if isinstance(payload, tuple):
        return FIELD_OVERHEAD_BITS + sum(payload_bits(field) for field in payload)
    return scalar_bits(payload)


# ----------------------------------------------------------------------
# Shape-compiled sizing (CongestPolicy.check fast path)
# ----------------------------------------------------------------------

#: Memo entries kept per policy; the engine sees a small working set of
#: payload values, so the cap exists only to bound pathological protocols.
CACHE_CAPACITY = 4096

_BOOL_NONE_BITS = 1 + FIELD_OVERHEAD_BITS


def _int_field_bits(value: int) -> int:
    return (abs(value)).bit_length() + 1 + FIELD_OVERHEAD_BITS if value else 4


def _bool_field_bits(_value: Any) -> int:
    return _BOOL_NONE_BITS


def _float_field_bits(value: float) -> int:
    if math.isinf(value):
        return 1 + FIELD_OVERHEAD_BITS
    return 64 + FIELD_OVERHEAD_BITS


def _str_field_bits(value: str) -> int:
    return 8 * len(value) + FIELD_OVERHEAD_BITS


#: Exact-class scalar sizers.  Exact (not ``isinstance``) dispatch keeps
#: ``bool`` (a subclass of ``int``) and user subclasses out of the fast
#: path; anything unlisted falls back to :func:`scalar_bits`.
_SCALAR_SIZERS: Dict[type, Callable[[Any], int]] = {
    int: _int_field_bits,
    bool: _bool_field_bits,
    float: _float_field_bits,
    str: _str_field_bits,
    type(None): _bool_field_bits,
}


def _compile_shape(classes: Tuple[type, ...]) -> Optional[Callable[[Any], int]]:
    """Return a sizing function for flat tuples of these exact classes.

    Returns ``None`` when the shape contains nested tuples or unsupported
    classes — callers must then use the :func:`payload_bits` reference.
    """
    try:
        sizers = tuple(_SCALAR_SIZERS[cls] for cls in classes)
    except KeyError:
        return None

    def sized(payload: Any, _sizers=sizers, _base=FIELD_OVERHEAD_BITS) -> int:
        total = _base
        for sizer, fieldvalue in zip(_sizers, payload):
            total += sizer(fieldvalue)
        return total

    return sized


def congest_budget_bits(universe: int, factor: int = DEFAULT_CONGEST_FACTOR) -> int:
    """Return the per-message bit budget for a value universe of size ``universe``.

    ``universe`` should upper-bound every magnitude a protocol message can
    carry (max of ``n``, the largest node ID ``N``, and the largest edge
    weight).  The budget is ``factor * max(8, ceil(log2(universe + 1)))``,
    i.e. ``O(log n)`` whenever the universe is polynomial in ``n``; the
    floor of 8 keeps toy-sized graphs from being spuriously stricter than
    the asymptotic model intends (constants are absorbed by O(log n)).
    """
    if universe < 1:
        raise ValueError("universe must be >= 1")
    return factor * max(8, math.ceil(math.log2(universe + 1)))


class CongestPolicy:
    """Message-size policy applied by the engine to every sent payload.

    Parameters
    ----------
    universe:
        Upper bound on magnitudes carried in messages (``max(n, N, W)``).
    strict:
        When true, an oversized message raises
        :class:`~repro.sim.errors.CongestViolation`; otherwise oversized
        messages are only counted in the metrics.
    factor:
        Budget multiplier, see :func:`congest_budget_bits`.
    """

    def __init__(
        self,
        universe: int,
        strict: bool = True,
        factor: int = DEFAULT_CONGEST_FACTOR,
    ) -> None:
        self.universe = universe
        self.strict = strict
        self.factor = factor
        self.budget = congest_budget_bits(universe, factor)
        #: ``shape -> (sizer, payload -> bits memo)``; ``(None, None)``
        #: marks unsupported shapes.  Routing by the exact element-class
        #: tuple means hash-equal payloads of different types (``(1,)`` vs
        #: ``(True,)``) land in *different* memos, so each memo can key on
        #: the payload alone.
        self._shape_table: Dict[
            Tuple[type, ...],
            Tuple[Optional[Callable[[Any], int]], Optional[Dict[Any, int]]],
        ] = {}
        self._cache_entries = 0

    def check(self, payload: Any) -> int:
        """Return the payload size in bits, agreeing with :func:`payload_bits`.

        This only *measures* — it never raises on oversized payloads; the
        engine (or :meth:`check_strict`) decides what to do with the
        measurement.  Repeated shapes/values hit the policy's internal
        shape-compiled sizers and bounded value memo.
        """
        if payload.__class__ is tuple:
            classes = tuple([fieldvalue.__class__ for fieldvalue in payload])
            shape_table = self._shape_table
            entry = shape_table.get(classes)
            if entry is None:
                sizer = _compile_shape(classes)
                entry = shape_table[classes] = (
                    sizer,
                    {} if sizer is not None else None,
                )
            sizer, cache = entry
            if sizer is None:
                # Nested tuples / unsupported classes: reference recursion,
                # uncached (nested numeric fields hash-collide across types).
                return payload_bits(payload)
            bits = cache.get(payload)
            if bits is None:
                bits = sizer(payload)
                if self._cache_entries >= CACHE_CAPACITY:
                    # Cheap bounded behaviour: drop every memo and let the
                    # live working set repopulate (it is tiny in practice).
                    for _, shape_cache in shape_table.values():
                        if shape_cache is not None:
                            shape_cache.clear()
                    self._cache_entries = 0
                cache[payload] = bits
                self._cache_entries += 1
            return bits
        if isinstance(payload, tuple):
            # Tuple subclasses (e.g. namedtuples): reference recursion,
            # uncached, like nested tuples.
            return payload_bits(payload)
        return scalar_bits(payload)

    def check_strict(self, payload: Any, node_id: int = -1, port: int = -1) -> int:
        """Measure ``payload`` and raise if it exceeds the budget in strict mode.

        Returns the size in bits.  In strict mode an over-budget payload
        raises :class:`~repro.sim.errors.CongestViolation` carrying
        ``node_id``/``port`` context (``-1`` when unknown); in lenient mode
        this is identical to :meth:`check`.
        """
        bits = self.check(payload)
        if self.strict and bits > self.budget:
            from .errors import CongestViolation

            raise CongestViolation(node_id, port, bits, self.budget)
        return bits

    def is_over_budget(self, bits: int) -> bool:
        return bits > self.budget

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "strict" if self.strict else "lenient"
        return f"CongestPolicy(universe={self.universe}, budget={self.budget}b, {mode})"


def congest_policy(
    graph: Any, universe: Optional[int], strict: bool, factor: Optional[int]
) -> CongestPolicy:
    """The CONGEST policy of one run on ``graph``, for either engine.

    ``universe`` defaults to ``max(n, N, W)`` read from the graph, and
    ``factor`` to :data:`DEFAULT_CONGEST_FACTOR`.
    """
    if not universe:
        universe = max(graph.n, graph.max_id, graph.max_weight)
    if factor is None:
        factor = DEFAULT_CONGEST_FACTOR
    return CongestPolicy(universe, strict, factor)
