"""Node-side API: Awake, NodeContext, protocol stepping helpers."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError
from random import Random

import pytest

from repro.sim.node import (
    Awake,
    NodeContext,
    prime_protocol,
    run_protocol_step,
)


def make_context(**overrides):
    defaults = dict(
        node_id=3,
        n=5,
        max_id=5,
        ports=(0, 1, 2),
        port_weights={0: 10, 1: 7, 2: 22},
        rng=Random(0),
    )
    defaults.update(overrides)
    return NodeContext(**defaults)


class TestAwake:
    def test_defaults_to_silent(self):
        action = Awake(4)
        assert dict(action.sends) == {}

    def test_rejects_round_below_one(self):
        with pytest.raises(ValueError):
            Awake(0)
        with pytest.raises(ValueError):
            Awake(-3)

    def test_carries_sends(self):
        action = Awake(2, {0: "x", 1: "y"})
        assert action.sends[0] == "x"

    def test_positional_and_keyword_construction_agree(self):
        sends = {0: ("x", 1)}
        assert Awake(3, sends) == Awake(round=3, sends=sends)
        assert Awake(3) == Awake(round=3)
        with pytest.raises(ValueError):
            Awake(round=0)

    def test_default_sends_are_fresh_per_action(self):
        first, second = Awake(1), Awake(1)
        assert first.sends == {} and first.sends is not second.sends

    def test_equality(self):
        assert Awake(2, {0: "x"}) == Awake(2, {0: "x"})
        assert Awake(2, {0: "x"}) != Awake(3, {0: "x"})
        assert Awake(2, {0: "x"}) != Awake(2, {0: "y"})
        assert Awake(2) != (2, {})

    def test_repr(self):
        assert repr(Awake(4)) == "Awake(round=4, sends={})"
        assert repr(Awake(2, {0: ("x", 1)})) == "Awake(round=2, sends={0: ('x', 1)})"

    def test_frozen(self):
        action = Awake(2, {0: "x"})
        with pytest.raises(FrozenInstanceError):
            action.round = 5
        with pytest.raises(FrozenInstanceError):
            action.sends = {}
        with pytest.raises(FrozenInstanceError):
            action.extra = 1
        with pytest.raises(FrozenInstanceError):
            del action.round
        assert action == Awake(2, {0: "x"})

    def test_pickle_round_trip(self):
        action = Awake(7, {1: ("x", 2)})
        assert pickle.loads(pickle.dumps(action)) == action


class TestNodeContext:
    def test_degree(self):
        assert make_context().degree == 3

    def test_min_weight_port(self):
        assert make_context().min_weight_port() == 1

    def test_broadcast_addresses_every_port(self):
        sends = make_context().broadcast("msg")
        assert sends == {0: "msg", 1: "msg", 2: "msg"}

    def test_broadcast_shares_one_payload_object(self):
        payload = ("msg", 1)
        sends = make_context().broadcast(payload)
        assert all(value is payload for value in sends.values())


class TestProtocolStepping:
    def test_prime_returns_first_action(self):
        def protocol():
            inbox = yield Awake(1)
            return inbox

        generator = protocol()
        finished, action = prime_protocol(generator)
        assert not finished
        assert action.round == 1

    def test_step_delivers_inbox_and_finishes(self):
        def protocol():
            inbox = yield Awake(1)
            return sorted(inbox)

        generator = protocol()
        prime_protocol(generator)
        finished, value = run_protocol_step(generator, {1: "a", 0: "b"})
        assert finished
        assert value == [0, 1]

    def test_immediate_return(self):
        def protocol():
            return "early"
            yield  # pragma: no cover

        finished, value = prime_protocol(protocol())
        assert finished and value == "early"
