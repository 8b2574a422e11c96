"""The vectorized array backend: golden equivalence + feature gating.

``engine="array"`` must be *byte-identical* to the coroutine engine on
every supported configuration — same MST edge sets, same
``Metrics.summary()``, same per-node ``NodeMetrics.as_dict()``, same
record fingerprints through the orchestrator — and must refuse loudly
(``UnsupportedFeatureError``) on everything it does not implement
(traces, observers, monitors, non-perfect channels, the deterministic
algorithm).  A slow test
(``pytest --slow``) holds the equivalence on the scale tier's n=4096
grid, and a work-count guard holds the Python calls of one array run.
"""

from __future__ import annotations

import json
import sys

import pytest

np = pytest.importorskip("numpy")

from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import WeightedGraph
from repro.orchestrator import GRAPH_FAMILIES, JobSpec, execute_job
from repro.orchestrator.store import RunRecord
from repro.sim import ENGINES, resolve_engine
from repro.sim.errors import CongestViolation, UnsupportedFeatureError
from repro.sim.transport import DropChannel


def run_both(graph, **kwargs):
    coroutine = run_randomized_mst(graph, **kwargs)
    array = run_randomized_mst(graph, engine="array", **kwargs)
    return coroutine, array


def assert_identical(coroutine, array):
    assert coroutine.mst_weights == array.mst_weights
    assert coroutine.node_outputs == array.node_outputs
    assert coroutine.phases == array.phases
    # Byte-level equality of the metrics summary (the JSON the CLI emits).
    assert json.dumps(coroutine.metrics.summary(), sort_keys=True) == json.dumps(
        array.metrics.summary(), sort_keys=True
    )
    # Per-node metrics, including dict insertion order (sorted node IDs).
    per_coroutine = {
        node: m.as_dict() for node, m in coroutine.metrics.per_node.items()
    }
    per_array = {node: m.as_dict() for node, m in array.metrics.per_node.items()}
    assert per_coroutine == per_array
    assert list(per_coroutine) == list(per_array)


class TestEngineResolution:
    def test_default_is_coroutine(self):
        assert resolve_engine(None) == "coroutine"
        assert resolve_engine("coroutine") == "coroutine"

    def test_array_resolves(self):
        assert resolve_engine("array") == "array"

    def test_engines_constant(self):
        assert ENGINES == ("coroutine", "array")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine("gpu")


class TestGoldenEquivalence:
    @pytest.mark.parametrize("family", ["path", "ring", "star", "grid", "gnp"])
    # n=256 reaches depth 255 on the path: eight pointer-doubling steps.
    @pytest.mark.parametrize("n", [2, 5, 16, 33, 256])
    def test_families_identical(self, family, n):
        if family == "ring" and n < 3:
            pytest.skip("a ring needs n >= 3")
        graph = GRAPH_FAMILIES[family](n, 0, None)
        assert_identical(*run_both(graph, seed=0))

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_seeds_identical(self, seed):
        # Coin parity: only current roots draw, once per phase, from
        # Random(f"{seed}/{node_id}") — any drift desynchronizes merges.
        graph = GRAPH_FAMILIES["gnp"](24, seed, None)
        assert_identical(*run_both(graph, seed=seed))

    def test_fixed_termination_identical(self):
        graph = GRAPH_FAMILIES["grid"](16, 0, None)
        assert_identical(*run_both(graph, seed=0, termination="fixed"))

    def test_sparse_id_space_identical(self):
        # Non-contiguous IDs stress the CSR index and congest universe.
        graph = GRAPH_FAMILIES["gnp"](16, 2, 8 * 16)
        assert_identical(*run_both(graph, seed=2))

    @pytest.mark.parametrize("max_phases", [0, 1, 2])
    def test_phase_budget_identical(self, max_phases):
        graph = GRAPH_FAMILIES["gnp"](16, 0, None)
        coroutine = run_randomized_mst(graph, seed=0, max_phases=max_phases)
        array = run_randomized_mst(
            graph, seed=0, max_phases=max_phases, engine="array"
        )
        assert coroutine.phases == array.phases == max_phases
        assert json.dumps(
            coroutine.metrics.summary(), sort_keys=True
        ) == json.dumps(array.metrics.summary(), sort_keys=True)

    def test_verify_accepts_array_output(self):
        graph = GRAPH_FAMILIES["grid"](25, 0, None)
        result = run_randomized_mst(graph, seed=0, engine="array", verify=True)
        assert result.is_correct_mst(graph)


def five_cycle(weights=(2, 3, 7, 9, 11), last_id=5):
    """The 5-cycle 1-2-3-4-``last_id``-1 with ``weights`` in that order."""
    ids = [1, 2, 3, 4, last_id]
    ring = zip(ids, ids[1:] + ids[:1])
    return WeightedGraph(ids, [(u, v, w) for (u, v), w in zip(ring, weights)])


class TestIntegerDomain:
    """Below :data:`repro.graphs.INT_BOUND` (2**62) the engines agree on
    every weight and ID; no graph at or above it can be built
    (``tests/graphs/test_weighted_graph.py``)."""

    def test_int_field_bits_matches_the_scalar_sizer(self):
        from repro.sim.array_engine import int_field_bits
        from repro.sim.congest import _int_field_bits

        # float64 rounds 2**k - 1 up to 2**k for k > 53, so a float-based
        # bit length is one too long there.
        values = [v for k in range(62) for v in (2**k - 1, 2**k, 2**k + 1)]
        sized = int_field_bits(np.array(values, dtype=np.int64)).tolist()
        assert sized == [_int_field_bits(value) for value in values]

    @pytest.mark.parametrize(
        "graph, max_message_bits, total_bits",
        [
            (five_cycle(weights=(2**60 - 1, 2**60 - 3, 7, 9, 11)), 74, 2778),
            (five_cycle(last_id=2**60 - 1), 76, 5507),
            (five_cycle(weights=(2**62 - 1, 2**62 - 3, 7, 9, 11)), 76, 2798),
        ],
        ids=["weights-2**60-1", "id-2**60-1", "weights-2**62-1"],
    )
    def test_engines_agree_below_the_bound(
        self, graph, max_message_bits, total_bits
    ):
        coroutine, array = run_both(graph, seed=0)
        assert_identical(coroutine, array)
        assert coroutine.metrics.max_message_bits == max_message_bits
        assert coroutine.metrics.total_bits == total_bits


class TestScaleOracle:
    @pytest.mark.slow
    def test_grid_4096_matches_coroutine_engine(self):
        # The scale tier's n=4096 pair, checked for byte-identical outputs
        # and metrics.  Its fragment trees reach depth 291 (nine doubling
        # steps), far past the equivalence suites' n <= 256: the deep-tree
        # check of the level-bits table and the closed-form last-awake
        # rounds.
        graph = GRAPH_FAMILIES["grid"](4096, 0, None)
        coroutine = run_randomized_mst(graph, seed=0)
        array = run_randomized_mst(graph, seed=0, engine="array")
        assert coroutine.mst_weights == array.mst_weights
        assert coroutine.node_outputs == array.node_outputs
        assert coroutine.phases == array.phases, (coroutine.phases, array.phases)
        summaries = [
            json.dumps(result.metrics.summary(), sort_keys=True)
            for result in (coroutine, array)
        ]
        assert summaries[0] == summaries[1], summaries
        per_node = [
            [
                (node, metrics.as_dict())
                for node, metrics in result.metrics.per_node.items()
            ]
            for result in (coroutine, array)
        ]
        assert per_node[0] == per_node[1]


#: Python calls into ``repro.sim.array_engine`` and ``repro.core.array_ops``
#: (``def`` functions only) during one array run on grid n=512, seed
#: 100000; the per-block accounting made 1,296.
ARRAY_RUN_CALLS = 268


class TestWorkCount:
    def test_array_run_makes_few_python_calls(self):
        """A phase is accounted in one pass: the run's Python calls stay
        within 2% of :data:`ARRAY_RUN_CALLS`.

        Counted with ``sys.setprofile`` call events.  Comprehension
        frames (``<listcomp>``) are left out: Python 3.12 inlines them.
        """
        from repro.core import array_ops
        from repro.sim import array_engine

        files = {array_ops.__file__, array_engine.__file__}
        graph = GRAPH_FAMILIES["grid"](512, 100000, None)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            code = frame.f_code
            if (
                event == "call"
                and code.co_filename in files
                and not code.co_name.startswith("<")
            ):
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = array_ops.run_randomized_mst_array(graph, seed=100000)
        finally:
            sys.setprofile(previous)
        assert {out.phases for out in result.node_results.values()} == {24}
        assert calls <= ARRAY_RUN_CALLS * 1.02, calls


class TestCongestParity:
    def test_lenient_violation_counts_match(self):
        graph = GRAPH_FAMILIES["gnp"](16, 0, None)
        coroutine, array = run_both(
            graph, seed=0, strict_congest=False, congest_factor=0.001
        )
        assert coroutine.metrics.congest_violations > 0
        assert (
            coroutine.metrics.congest_violations
            == array.metrics.congest_violations
        )

    def test_strict_raises_on_both_engines(self):
        cells = [
            (GRAPH_FAMILIES["gnp"](16, 0, None), 0, 0.001),
            # The first over-budget message is a broadcast's, and not the
            # lowest node's: both engines must name the same sender and port.
            (
                WeightedGraph(
                    [1, 2, 3, 4, 5],
                    [(1, 3, 114011), (2, 5, 99544), (3, 4, 55), (4, 5, 4600305)],
                ),
                89,
                1.5,
            ),
        ]
        for graph, seed, congest_factor in cells:
            raised = []
            for engine in ENGINES:
                with pytest.raises(CongestViolation) as info:
                    run_randomized_mst(
                        graph,
                        seed=seed,
                        congest_factor=congest_factor,
                        engine=engine,
                    )
                error = info.value
                raised.append(
                    (error.node_id, error.port, error.bits, error.budget)
                )
            coroutine, array = raised
            assert array == coroutine

    def test_congest_universe_override_identical(self):
        graph = GRAPH_FAMILIES["path"](8, 0, None)
        assert_identical(*run_both(graph, seed=0, congest_universe=10**6))


class TestOrchestratorFingerprint:
    def test_record_fingerprints_match_through_rewrap(self):
        # ``engine`` enters the spec options (so the key differs), but the
        # *measurements* must be indistinguishable: re-wrapping the array
        # cell's metrics under the coroutine spec must reproduce that
        # record's fingerprint byte for byte.
        spec = JobSpec.create("randomized", "grid", 16, 0)
        array_spec = JobSpec.create(
            "randomized", "grid", 16, 0, options={"engine": "array"}
        )
        coroutine_record = RunRecord.ok(spec, execute_job(spec))
        rewrapped = RunRecord.ok(spec, execute_job(array_spec))
        assert rewrapped.fingerprint() == coroutine_record.fingerprint()


class TestUnsupportedFeatures:
    def test_deterministic_algorithm_rejected(self):
        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        with pytest.raises(UnsupportedFeatureError, match="Deterministic-MST"):
            run_deterministic_mst(graph, engine="array")

    def test_comparator_runners_rejected(self):
        from repro.problems import MST_BUNDLE

        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        for name in ("traditional", "pipelined"):
            with pytest.raises(UnsupportedFeatureError):
                MST_BUNDLE.runner(name)(graph, 0, engine="array")

    @pytest.mark.parametrize(
        "kwargs, feature",
        [
            ({"trace": True}, "event tracing"),
            ({"max_trace_events": 10}, "event tracing"),
            ({"observe": True}, "observability spans"),
            ({"track_knowledge": True}, "knowledge tracking"),
        ],
    )
    def test_sim_kwargs_rejected(self, kwargs, feature):
        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        with pytest.raises(UnsupportedFeatureError, match=feature):
            run_randomized_mst(graph, seed=0, engine="array", **kwargs)

    def test_monitors_rejected(self):
        from repro.invariants import build_monitor_set

        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        with pytest.raises(UnsupportedFeatureError, match="invariant monitors"):
            run_randomized_mst(
                graph, seed=0, engine="array", monitors=build_monitor_set("all")
            )

    def test_faulty_channel_rejected(self):
        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        with pytest.raises(UnsupportedFeatureError, match="channel"):
            run_randomized_mst(
                graph, seed=0, engine="array", channel=DropChannel(0.1)
            )

    def test_error_message_names_the_fallback(self):
        graph = GRAPH_FAMILIES["ring"](8, 0, None)
        with pytest.raises(UnsupportedFeatureError, match="coroutine"):
            run_randomized_mst(graph, seed=0, engine="array", trace=True)

    def test_unsupported_error_is_catchable_as_simulation_error(self):
        from repro.sim.errors import SimulationError

        assert issubclass(UnsupportedFeatureError, SimulationError)
