"""Span attribution semantics, via hand-written protocols on tiny graphs."""

from __future__ import annotations

import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import path_graph, star_graph
from repro.obs import ROOT_PATH, UNATTRIBUTED, ObsRecorder, SpanRecord
from repro.sim import Awake, CongestViolation, SleepingSimulator, simulate


def test_innermost_span_gets_the_charge():
    """An awake round at a yield belongs to the span containing the yield."""
    graph = path_graph(2, seed=0)

    def protocol(ctx):
        with ctx.span("outer"):
            yield Awake(1)
            with ctx.span("inner"):
                yield Awake(2, ctx.broadcast("hi"))
            yield Awake(3)
        yield Awake(4)
        return None

    result = simulate(graph, protocol, observe=True)
    for node in graph.node_ids:
        by_label = {r.label: r for r in result.spans.for_node(node)}
        assert set(by_label) == {UNATTRIBUTED, "outer", "outer/inner"}
        # Direct charges only: the inner span's round is not double-counted.
        assert by_label["outer"].awake == 2
        assert by_label["outer/inner"].awake == 1
        assert by_label[UNATTRIBUTED].awake == 1
        assert by_label["outer/inner"].messages == 1
        assert by_label["outer/inner"].first_round == 2


def test_extents_cover_descendants():
    graph = path_graph(2, seed=0)

    def protocol(ctx):
        with ctx.span("outer"):
            with ctx.span("inner"):
                yield Awake(5)
        return None

    result = simulate(graph, protocol, observe=True)
    outer = next(r for r in result.spans if r.label == "outer")
    # No direct charges on the parent, but the child's rounds define extent.
    assert outer.awake == 0
    assert outer.first_round is None
    assert (outer.extent_first, outer.extent_last) == (5, 5)


def test_sends_are_charged_to_the_scheduling_span():
    """Messages go out at the yield's round while the generator is suspended
    there, so the span around the yield owns them."""
    graph = path_graph(2, seed=0)

    def protocol(ctx):
        with ctx.span("talk"):
            yield Awake(1, ctx.broadcast("x"))
        with ctx.span("quiet"):
            yield Awake(2)
        return None

    result = simulate(graph, protocol, observe=True)
    for node in graph.node_ids:
        by_label = {r.label: r for r in result.spans.for_node(node)}
        assert by_label["talk"].messages == 1
        assert by_label["talk"].bits > 0
        assert by_label["quiet"].messages == 0


def test_strict_congest_violation_charges_the_ports_already_sent():
    """A send that breaks the CONGEST budget aborts the run; the sender's
    span still holds the messages it sent on earlier ports."""
    graph = star_graph(4, seed=0)
    hub = min(graph.node_ids, key=lambda node: -len(graph.ports_of(node)))

    def protocol(ctx):
        sends = dict.fromkeys(ctx.ports, 1)
        if ctx.degree > 1:
            sends[ctx.ports[-1]] = 10**60  # too wide for one message
        with ctx.span("talk"):
            yield Awake(1, sends)
        return None

    simulator = SleepingSimulator(graph, protocol, observe=True)
    with pytest.raises(CongestViolation) as caught:
        simulator.run()
    assert caught.value.node_id == hub
    # The aborted run closed every node's generator, whose ``with`` exit
    # recorded its open span, although the traceback held in ``caught``
    # still references them.
    talk = {r.node: r for r in simulator.obs.spans if r.label == "talk"}
    one_message = simulator.congest.check(1)
    assert (talk[hub].messages, talk[hub].bits) == (2, 2 * one_message)
    for node, record in talk.items():
        if node < hub:
            assert (record.messages, record.bits) == (1, one_message)
        elif node > hub:
            assert record.messages == 0


def test_uninstrumented_protocol_lands_in_root_span():
    graph = path_graph(3, seed=1)

    def protocol(ctx):
        yield Awake(1, ctx.broadcast(ctx.node_id))
        return None

    result = simulate(graph, protocol, observe=True)
    per_node = result.spans.per_node_awake()
    for node, stats in result.metrics.per_node.items():
        assert per_node[node] == stats.awake_rounds
    assert result.spans.unattributed_awake() == per_node


def test_span_parts_join_with_colon():
    recorder = ObsRecorder()
    obs = recorder.node_handle(0)
    with obs.span(("phase", 3)):
        obs.charge_awake(7)
    records = [r for r in recorder.spans if not r.is_root]
    assert records[0].name == "phase:3"
    assert records[0].path == ("phase:3",)


def test_unbalanced_exit_raises():
    recorder = ObsRecorder()
    obs = recorder.node_handle(0)
    span = obs.span(("never-entered",))
    with pytest.raises(RuntimeError, match="underflow"):
        span.__exit__(None, None, None)


def test_root_path_and_close_order():
    recorder = ObsRecorder()
    for node in (2, 0, 1):
        recorder.node_handle(node)
    recorder.close()
    roots = [r for r in recorder.spans if r.is_root]
    assert [r.node for r in roots] == [0, 1, 2]
    assert all(r.path == ROOT_PATH for r in roots)


def test_count_feeds_registry():
    recorder = ObsRecorder()
    obs = recorder.node_handle(4)
    obs.count("algo.phases", algorithm="test")
    obs.count("algo.phases", 2, algorithm="test")
    assert recorder.registry.counter("algo.phases").value(algorithm="test") == 3


FIELDS = (
    "node",
    "path",
    "awake",
    "messages",
    "bits",
    "first_round",
    "last_round",
    "extent_first",
    "extent_last",
    "index",
)
VALUES = (3, ("phase:1", "block:upcast_moe"), 2, 1, 40, 5, 9, 4, 11, 17)


class TestSpanRecordContract:
    """The public contract of a frozen dataclass, whatever the class is."""

    def make(self, **changes):
        fields = dict(zip(FIELDS, VALUES))
        fields.update(changes)
        return SpanRecord(**fields)

    def test_keyword_and_positional_construction_agree(self):
        record = SpanRecord(*VALUES)
        assert record == self.make()
        assert tuple(getattr(record, name) for name in FIELDS) == VALUES

    def test_construction_needs_every_field(self):
        with pytest.raises(TypeError):
            SpanRecord(*VALUES[:-1])
        with pytest.raises(TypeError):
            SpanRecord(*VALUES, 0)

    def test_equality_and_hash_are_field_wise(self):
        record = self.make()
        twin = self.make()
        assert record == twin and not record != twin
        assert hash(record) == hash(twin)
        assert len({record, twin}) == 1
        for name, value in zip(FIELDS, VALUES):
            other = self.make(**{name: ("other",) if name == "path" else -1})
            assert record != other, name
        assert record != VALUES
        assert record.__eq__(VALUES) is NotImplemented

    def test_repr_names_every_field(self):
        assert repr(self.make()) == (
            "SpanRecord(node=3, path=('phase:1', 'block:upcast_moe'), "
            "awake=2, messages=1, bits=40, first_round=5, last_round=9, "
            "extent_first=4, extent_last=11, index=17)"
        )

    def test_frozen_against_assignment_and_deletion(self):
        record = self.make()
        for name in FIELDS:
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 0)
            with pytest.raises(FrozenInstanceError):
                delattr(record, name)
        with pytest.raises(FrozenInstanceError):
            record.extra = 1
        assert record == self.make()

    def test_pickle_round_trip(self):
        record = self.make()
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and hash(clone) == hash(record)
        assert type(clone) is SpanRecord

    def test_derived_views(self):
        record = self.make()
        assert record.name == "block:upcast_moe"
        assert record.label == "phase:1/block:upcast_moe"
        assert not record.is_root
        assert record.to_dict() == {
            "node": 3,
            "path": "phase:1/block:upcast_moe",
            "awake": 2,
            "messages": 1,
            "bits": 40,
            "first_round": 5,
            "last_round": 9,
            "extent_first": 4,
            "extent_last": 11,
        }
        root = self.make(path=ROOT_PATH, first_round=None, last_round=None)
        assert root.is_root
        assert root.name == root.label == UNATTRIBUTED
        assert root.to_dict()["first_round"] is None


# A span program: "yield" steps (rounds to skip, whether to send) and
# nested spans named by their ``ctx.span`` parts.
SPAN_NAMES = (("outer",), ("block:x",), ("phase", 2), ("merge", 1, "up"))
YIELD_STEPS = st.tuples(st.just("yield"), st.integers(1, 3), st.booleans())
PROGRAMS = st.lists(
    st.recursive(
        YIELD_STEPS,
        lambda inner: st.tuples(
            st.just("span"), st.sampled_from(SPAN_NAMES), st.lists(inner, max_size=4)
        ),
        max_leaves=16,
    ),
    max_size=5,
)


def program_protocol(program):
    def protocol(ctx):
        clock = 0

        def run(steps):
            nonlocal clock
            for step in steps:
                if step[0] == "yield":
                    clock += step[1]
                    yield Awake(clock, ctx.broadcast(1) if step[2] else {})
                else:
                    with ctx.span(*step[1]):
                        yield from run(step[2])

        yield from run(program)
        return None

    return protocol


def naive_records(program):
    """Each span's direct charges and extent, recomputed from scratch.

    Records come in open order; a span's extent is the ``min``/``max``
    over every round charged to it or to any descendant.
    """
    records = []
    clock = 0

    def walk(steps, path):
        nonlocal clock
        record = {"path": path, "awake": 0, "messages": 0, "direct": []}
        records.append(record)
        covered = []
        for step in steps:
            if step[0] == "yield":
                clock += step[1]
                record["awake"] += 1
                record["messages"] += int(step[2])
                record["direct"].append(clock)
                covered.append(clock)
            else:
                name = ":".join(str(part) for part in step[1])
                covered.extend(walk(step[2], path + (name,)))
        direct = record.pop("direct")
        record["first_round"] = min(direct) if direct else None
        record["last_round"] = max(direct) if direct else None
        record["extent_first"] = min(covered) if covered else None
        record["extent_last"] = max(covered) if covered else None
        return covered

    walk(program, ROOT_PATH)
    return records


@given(PROGRAMS)
def test_span_records_match_naive_recomputation(program):
    graph = path_graph(2, seed=0)
    result = simulate(graph, program_protocol(program), observe=True)
    expected = naive_records(program)
    indices = [record.index for record in result.spans]
    assert len(set(indices)) == len(indices)
    for node in graph.node_ids:
        stats = result.metrics.per_node[node]
        bits_per_message = (
            stats.bits_sent // stats.messages_sent if stats.messages_sent else 0
        )
        actual = sorted(result.spans.for_node(node), key=lambda r: r.index)
        assert [
            {
                "path": record.path,
                "awake": record.awake,
                "messages": record.messages,
                "first_round": record.first_round,
                "last_round": record.last_round,
                "extent_first": record.extent_first,
                "extent_last": record.extent_last,
            }
            for record in actual
        ] == expected
        assert all(
            record.bits == record.messages * bits_per_message for record in actual
        )
