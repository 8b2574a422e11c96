"""Pluggable message-transport layer: channel models with fault injection.

The sleeping model's defining delivery rule — *messages addressed to a
sleeping node are lost* — used to be hardwired inside the engine's round
loop.  This module makes delivery a first-class, swappable policy: a
:class:`ChannelModel` decides the fate of every transmitted message, so
the same protocols can be run under perfect delivery (the paper's model),
seeded random loss, bounded delay, duplication, or crash-stop node
failures — without touching protocol or engine code.

Semantics
---------
For every message the engine calls::

    outcome = channel.deliver(round, sender, port, payload, bits,
                              receiver_awake)

and acts on the returned :class:`Outcome`:

``deliver``
    The message reaches the receiver's inbox this round.  Only an awake
    receiver has an inbox, so a channel returns it only when
    ``receiver_awake`` is true.
``lose``
    The sleeping-model loss: the receiver was asleep (or the channel
    decided the message arrives at a round where the receiver is asleep).
    Counted in ``metrics.messages_lost``.
``drop``
    The channel destroyed the message in flight (fault injection).
    Counted in ``metrics.messages_dropped``.
``delay``
    The message is re-scheduled to arrive at ``Outcome.deliver_round``;
    the receiver must be awake *in that round* to hear it, otherwise it is
    lost — exactly the sleeping-model rule applied at arrival time.
    Counted in ``metrics.messages_delayed`` (plus ``delivered``/``lost``
    when it resolves).

Additionally an outcome may carry ``duplicate_round``: the channel emits
an *extra* copy of the message scheduled for that round (counted in
``metrics.messages_duplicated``), subject to the same awake-at-arrival
rule.

Crash-stop failures use a second hook: :meth:`ChannelModel.crash_round`
returns the round at which a node permanently fails (or ``None``).  A
crashed node fails at the *start* of that round, before transmitting: its
pending sends are discarded, it executes no further protocol steps, and it
never reports a result — downstream validation then classifies the run
(see :func:`repro.graphs.verify_or_diagnose`).

Determinism
-----------
Channels draw randomness from a :class:`random.Random` handed to
:meth:`ChannelModel.reset` by the engine, seeded from the simulation's
master seed (``f"{seed}/transport"``).  Two runs with the same graph,
seed, and channel spec therefore inject byte-identical faults — the same
messages drop, the same copies delay — which is what makes fault sweeps
cacheable and resumable by the orchestrator.

Channel specs
-------------
:func:`parse_channel_spec` turns the compact strings used by the CLI and
the orchestrator grid axis into channel instances::

    perfect                 the default (also: None / "")
    drop:0.05               each message independently dropped w.p. 0.05
    delay:3                 each message delayed by uniform{0..3} rounds
    dup:0.1                 w.p. 0.1 an extra copy arrives one round late
    crash:2@50              2 seeded-randomly chosen nodes die at round 50
    drop:0.01+crash:1@40    '+' composes models (first fault wins)
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Outcome:
    """What the channel decided for one transmitted message.

    ``kind`` is one of ``"deliver"``, ``"lose"``, ``"drop"``, ``"delay"``.
    ``deliver_round`` is set for ``delay`` outcomes; ``duplicate_round``
    (on any kind) schedules an extra copy of the message.
    """

    kind: str
    deliver_round: Optional[int] = None
    duplicate_round: Optional[int] = None


#: Shared singleton outcomes for the overwhelmingly common cases, so the
#: per-message cost of a channel decision is one attribute load, not an
#: allocation.
DELIVERED = Outcome("deliver")
LOST = Outcome("lose")
DROPPED = Outcome("drop")


def _sleeping_policy(receiver_awake: bool) -> Outcome:
    """The baseline sleeping-model rule: awake receivers hear, others lose."""
    return DELIVERED if receiver_awake else LOST


class ChannelModel:
    """Base class / interface for message-delivery policies.

    Subclasses override :meth:`deliver` (and optionally
    :meth:`crash_round`).  ``is_perfect`` is a class-level flag: when true
    the engine's round loop applies the sleeping rule inline instead of
    calling :meth:`deliver` once per message.
    """

    #: True only for :class:`PerfectChannel`: the engine decides delivery
    #: inline, and the array engine accepts the channel.
    is_perfect = False

    def reset(self, node_ids: Sequence[int], rng: Random) -> None:
        """Called once per run, before round 1.

        ``node_ids`` is the sorted node population; ``rng`` is a fresh
        seed-derived generator this run's fault decisions must come from
        (unless the channel was constructed with an explicit ``rng``).
        """

    def deliver(
        self,
        round_number: int,
        sender: int,
        port: int,
        payload: Any,
        bits: int,
        receiver_awake: bool,
    ) -> Outcome:
        """Decide the fate of one message (see module docstring)."""
        return _sleeping_policy(receiver_awake)

    def crash_round(self, node_id: int) -> Optional[int]:
        """Round at which ``node_id`` crash-stops, or ``None`` (never)."""
        return None


class PerfectChannel(ChannelModel):
    """Today's semantics, verbatim: awake receivers hear, sleepers lose.

    This is the default channel and is byte-identical to the pre-transport
    engine — the golden metrics/trace tests in
    ``tests/sim/test_transport.py`` pin that equivalence.
    """

    is_perfect = True


class _SeededChannel(ChannelModel):
    """Shared plumbing for channels that draw randomness.

    An ``rng`` passed at construction wins; otherwise the engine's
    seed-derived generator from :meth:`reset` is used, which is what makes
    repeated runs of the same seed inject identical faults.
    """

    def __init__(self, rng: Optional[Random] = None) -> None:
        self._own_rng = rng
        self._rng: Random = rng if rng is not None else Random(0)

    def reset(self, node_ids: Sequence[int], rng: Random) -> None:
        self._rng = self._own_rng if self._own_rng is not None else rng


class DropChannel(_SeededChannel):
    """Drop each message independently with probability ``p``."""

    def __init__(self, p: float, rng: Optional[Random] = None) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {p}")
        super().__init__(rng)
        self.p = float(p)

    def deliver(self, round_number, sender, port, payload, bits, receiver_awake):
        if self._rng.random() < self.p:
            return DROPPED
        return _sleeping_policy(receiver_awake)


class DelayChannel(_SeededChannel):
    """Delay each message by uniform ``{0, ..., max_delay}`` rounds.

    A zero draw is an ordinary same-round delivery.  A positive draw
    re-schedules the message with a deliver-at round; the receiver must be
    awake in exactly that round, otherwise the message is lost — delay
    composes with the sleeping-loss rule rather than replacing it.
    """

    def __init__(self, max_delay: int, rng: Optional[Random] = None) -> None:
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        super().__init__(rng)
        self.max_delay = int(max_delay)

    def deliver(self, round_number, sender, port, payload, bits, receiver_awake):
        delay = self._rng.randint(0, self.max_delay) if self.max_delay else 0
        if delay == 0:
            return _sleeping_policy(receiver_awake)
        return Outcome("delay", deliver_round=round_number + delay)


class DuplicateChannel(_SeededChannel):
    """Deliver normally, plus (w.p. ``p``) an extra copy ``lag`` rounds late.

    The extra copy obeys the awake-at-arrival rule, so against the paper's
    protocols — which rarely wake two rounds in a row — most duplicates
    resolve to losses; against chatty protocols they land as stale
    payloads and probe idempotence.
    """

    def __init__(
        self, p: float, lag: int = 1, rng: Optional[Random] = None
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"duplicate probability must be in [0, 1], got {p}")
        if lag < 1:
            raise ValueError(f"duplicate lag must be >= 1, got {lag}")
        super().__init__(rng)
        self.p = float(p)
        self.lag = int(lag)

    def deliver(self, round_number, sender, port, payload, bits, receiver_awake):
        base = DELIVERED if receiver_awake else LOST
        if self._rng.random() < self.p:
            return Outcome(base.kind, duplicate_round=round_number + self.lag)
        return base


class CrashSchedule(ChannelModel):
    """Crash-stop failures: kill given nodes at given rounds.

    Construct with an explicit ``{node_id: round}`` plan, or via
    :meth:`CrashSchedule.random` to kill ``count`` seeded-randomly chosen
    nodes at one round (the choice is made at :meth:`reset`, from the
    engine's seed-derived generator, so it is reproducible).

    Delivery itself is the baseline sleeping policy — a crashed node is
    simply never awake again, so messages addressed to it are lost through
    the ordinary rule.
    """

    def __init__(
        self, crashes: Optional[Dict[int, int]] = None, rng: Optional[Random] = None
    ) -> None:
        for node, round_number in (crashes or {}).items():
            if round_number < 1:
                raise ValueError(
                    f"crash round for node {node} must be >= 1, got {round_number}"
                )
        self._explicit = dict(crashes or {})
        self._random_kills: List[Tuple[int, int]] = []  # (count, round)
        self._own_rng = rng
        self._plan: Dict[int, int] = dict(self._explicit)

    @classmethod
    def random(
        cls, count: int, round_number: int, rng: Optional[Random] = None
    ) -> "CrashSchedule":
        """Kill ``count`` randomly chosen nodes at ``round_number``."""
        if count < 0:
            raise ValueError(f"crash count must be >= 0, got {count}")
        if round_number < 1:
            raise ValueError(f"crash round must be >= 1, got {round_number}")
        schedule = cls(rng=rng)
        schedule._random_kills.append((int(count), int(round_number)))
        return schedule

    def reset(self, node_ids: Sequence[int], rng: Random) -> None:
        self._plan = dict(self._explicit)
        if not self._random_kills:
            return
        draw = self._own_rng if self._own_rng is not None else rng
        for count, round_number in self._random_kills:
            pool = [nid for nid in node_ids if nid not in self._plan]
            for victim in sorted(draw.sample(pool, min(count, len(pool)))):
                self._plan[victim] = round_number

    def crash_round(self, node_id: int) -> Optional[int]:
        return self._plan.get(node_id)

    @property
    def plan(self) -> Dict[int, int]:
        """The resolved ``{node_id: crash_round}`` plan (after reset)."""
        return dict(self._plan)


class CompositeChannel(ChannelModel):
    """Chain several channel models; the first injected fault wins.

    Each part sees the message in order.  A part returning a fault outcome
    (``drop``/``delay``/anything carrying a duplicate) short-circuits the
    chain; if every part defers, the baseline sleeping policy applies.
    Crash plans are merged (earliest crash round wins per node).
    """

    def __init__(self, parts: Sequence[ChannelModel]) -> None:
        if not parts:
            raise ValueError("CompositeChannel needs at least one part")
        self.parts: Tuple[ChannelModel, ...] = tuple(parts)

    def reset(self, node_ids: Sequence[int], rng: Random) -> None:
        # Each part gets its own stream derived from the run's transport
        # seed, so adding a part never perturbs the draws of the others.
        for index, part in enumerate(self.parts):
            part.reset(node_ids, Random(f"{rng.random()}/{index}"))

    def deliver(self, round_number, sender, port, payload, bits, receiver_awake):
        for part in self.parts:
            outcome = part.deliver(
                round_number, sender, port, payload, bits, receiver_awake
            )
            if outcome.kind in ("drop", "delay") or outcome.duplicate_round:
                return outcome
        return _sleeping_policy(receiver_awake)

    def crash_round(self, node_id: int) -> Optional[int]:
        rounds = [
            r for r in (part.crash_round(node_id) for part in self.parts)
            if r is not None
        ]
        return min(rounds) if rounds else None


# ----------------------------------------------------------------------
# Spec strings (the CLI / orchestrator grid-axis syntax)
# ----------------------------------------------------------------------

#: Spec syntax examples, surfaced in ``--help`` and error messages.
CHANNEL_SPEC_EXAMPLES = (
    "perfect",
    "drop:0.05",
    "delay:3",
    "dup:0.1",
    "crash:2@50",
    "drop:0.01+crash:1@40",
)


def _parse_crash_arg(arg: str) -> CrashSchedule:
    kills: List[Tuple[int, int]] = []
    for chunk in arg.split(","):
        if "@" not in chunk:
            raise ValueError(
                f"crash spec {chunk!r} must look like COUNT@ROUND (e.g. crash:2@50)"
            )
        count_text, round_text = chunk.split("@", 1)
        kills.append((int(count_text), int(round_text)))
    if not kills:
        raise ValueError("crash spec needs at least one COUNT@ROUND entry")
    schedule = CrashSchedule.random(*kills[0])
    for count, round_number in kills[1:]:
        schedule._random_kills.append((count, round_number))
    return schedule


def _parse_one(part: str) -> ChannelModel:
    text = part.strip()
    if not text or text == "perfect":
        return PerfectChannel()
    kind, _, arg = text.partition(":")
    try:
        if kind == "drop":
            return DropChannel(float(arg))
        if kind == "delay":
            return DelayChannel(int(arg))
        if kind in ("dup", "duplicate"):
            return DuplicateChannel(float(arg))
        if kind == "crash":
            return _parse_crash_arg(arg)
    except ValueError as error:
        raise ValueError(f"bad channel spec {text!r}: {error}") from error
    raise ValueError(f"unknown channel kind {kind!r} in spec {text!r}")


def parse_channel_spec(spec: Optional[str]) -> ChannelModel:
    """Build a channel model from a spec string (see module docstring).

    ``None`` and ``""`` and ``"perfect"`` all yield :class:`PerfectChannel`;
    ``'+'`` joins parts into a :class:`CompositeChannel`.  A bad spec
    raises ``ValueError`` ending in ``examples:`` and
    :data:`CHANNEL_SPEC_EXAMPLES`, the message every door prints.
    """
    if spec is None or not spec.strip() or spec.strip() == "perfect":
        return PerfectChannel()
    try:
        parts = [_parse_one(part) for part in spec.split("+")]
    except ValueError as error:
        raise ValueError(
            f"{error}; examples: {', '.join(CHANNEL_SPEC_EXAMPLES)}"
        ) from None
    meaningful = [part for part in parts if not part.is_perfect]
    if not meaningful:
        return PerfectChannel()
    if len(meaningful) == 1:
        return meaningful[0]
    return CompositeChannel(meaningful)


def validate_channel_spec(spec: Optional[str]) -> Optional[str]:
    """Parse-check a spec and return it normalised (``None`` for perfect).

    The orchestrator uses this at grid-expansion time, and the CLI on its
    ``--faults`` flag, so a typo in one fault axis value fails fast,
    before any job runs.
    """
    channel = parse_channel_spec(spec)
    if channel.is_perfect:
        return None
    return spec.strip() if spec else None
