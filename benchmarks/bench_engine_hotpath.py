"""HOTPATH — engine/congest hot-path timings under pytest-benchmark.

The authoritative perf record is ``repro bench`` (see docs/performance.md
and the committed ``BENCH_engine.json``); this module exposes the same
workloads — built by :mod:`repro.bench.suites` so the two harnesses can
never drift apart — to ``pytest benchmarks/ --benchmark-only`` runs, and
asserts the structural facts the optimizations rely on: the shape memo
actually hits, and attaching observers never changes a run.
"""

from __future__ import annotations

from repro.bench.suites import get_benchmark, payload_corpus
from repro.core import run_randomized_mst
from repro.graphs import random_connected_graph
from repro.sim.congest import CongestPolicy, payload_bits


def test_payload_bits_micro(benchmark, report):
    spec = get_benchmark("payload_bits_micro")
    benchmark(spec.make())

    policy = CongestPolicy(10**6, strict=False)
    corpus = payload_corpus()
    for payload in corpus:
        policy.check(payload)
    flat_shapes = sum(
        1 for _, cache in policy._shape_table.values() if cache is not None
    )
    report.record(
        "Engine hot path / payload memo",
        f"corpus={len(corpus)} payloads, shapes={len(policy._shape_table)} "
        f"({flat_shapes} compiled flat), memo entries={policy._cache_entries}",
    )
    # Every flat tuple shape in the corpus compiles to a sizer; only the
    # deliberately nested shape falls back to the recursive reference.
    assert flat_shapes >= len(policy._shape_table) - 1
    for payload in corpus:
        assert policy.check(payload) == payload_bits(payload)


def test_engine_round_loop(benchmark):
    benchmark(get_benchmark("engine_round_loop").make())


def test_mst_end_to_end(benchmark, report):
    spec = get_benchmark("mst_randomized_e2e_n64")
    benchmark(spec.make())

    # The observer-free run must be indistinguishable from an observed one
    # (observers only feed the trace and spans).
    graph = random_connected_graph(48, seed=11)
    plain = run_randomized_mst(graph, seed=3)
    observed = run_randomized_mst(graph, seed=3, trace=True, observe=True)
    assert plain.mst_weights == observed.mst_weights
    assert plain.metrics.summary() == observed.metrics.summary()
    report.record(
        "Engine hot path / observed-vs-plain run",
        f"n=48 randomized MST: weight sum {sum(plain.mst_weights)}, "
        f"metrics identical with and without observers",
    )
