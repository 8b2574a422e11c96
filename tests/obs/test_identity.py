"""The tentpole guarantees, as tier-1 tests.

* **Accounting identity** — per node, the engine's awake-round counter
  equals the sum of span-attributed awake rounds (including the implicit
  root span), for every algorithm and graph family.
* **Per-block O(1) awake** — the paper's "each block costs O(1) awake
  rounds" decomposition (Theorems 1-2), measured per (node, phase, block)
  and bounded by a small constant that does not grow with ``n``.
* **Determinism** — enabling observability changes no algorithmic output:
  metrics and MST edge sets are byte-identical with ``observe`` on or off.
"""

from __future__ import annotations

import json

import pytest

from repro.core import run_deterministic_mst, run_randomized_mst
from repro.obs import block_breakdown, check_awake_identity
from repro.orchestrator import GRAPH_FAMILIES
from repro.problems import run_sleeping_mis
from repro.sim import NodeContext

SIZES = (8, 16, 32)
FAMILIES = ("ring", "gnp", "star")

#: Empirical per-(node, phase, block) awake ceilings with safety margin.
#: Randomized blocks cost <= 2 awake rounds (upcast/broadcast: receive +
#: forward); deterministic adds the coloring stage whose Neighbor-Awareness
#: sub-blocks repeat once per colour class, still O(1).
BLOCK_AWAKE_BOUND = {
    "randomized": 3,
    "deterministic": 10,
}

RUNNERS = {
    "randomized": run_randomized_mst,
    "deterministic": run_deterministic_mst,
}


def _run(algorithm, family, n, **kwargs):
    graph = GRAPH_FAMILIES[family](n, 1, None)
    return graph, RUNNERS[algorithm](graph, seed=1, verify=True, **kwargs)


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
@pytest.mark.parametrize("family", FAMILIES)
def test_awake_identity_per_node(algorithm, family):
    for n in SIZES:
        _, result = _run(algorithm, family, n, observe=True)
        mismatches = check_awake_identity(result.spans, result.metrics)
        assert mismatches == {}, (
            f"{algorithm}/{family}/n={n}: span sums != engine accounting: "
            f"{mismatches}"
        )
        # Instrumented algorithms attribute every awake round to a span:
        # nothing may leak into the per-node root span.
        assert result.spans.unattributed_awake() == {}


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
@pytest.mark.parametrize("family", FAMILIES)
def test_per_block_awake_is_constant(algorithm, family):
    bound = BLOCK_AWAKE_BOUND[algorithm]
    for n in SIZES:
        _, result = _run(algorithm, family, n, observe=True)
        breakdown = block_breakdown(result.spans)
        assert breakdown.blocks, "no block spans recorded"
        for (block, phase), cell in breakdown.cells.items():
            assert cell.max_awake <= bound, (
                f"{algorithm}/{family}/n={n}: block {block!r} phase "
                f"{phase}: {cell.max_awake} awake rounds > {bound}"
            )


def test_randomized_has_nine_blocks_per_full_phase():
    """The paper's phase layout: 9 blocks, visible in the span data."""
    _, result = _run("randomized", "gnp", 16, observe=True)
    breakdown = block_breakdown(result.spans)
    top_level = {b for b in breakdown.blocks if "/" not in b}
    assert top_level == {
        "block:neighbor_refresh",
        "block:upcast_moe",
        "block:broadcast_coin",
        "block:transmit_adjacent",
        "block:upcast_valid",
        "block:broadcast_valid",
        "block:merge_announce",
        "block:merge_up",
        "block:merge_down",
    }


def _canonical(result):
    return json.dumps(
        {
            "metrics": result.metrics.summary(),
            "mst": sorted(result.mst_weights),
            "phases": result.phases,
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("algorithm", sorted(RUNNERS))
def test_observability_does_not_change_the_run(algorithm):
    """Byte-identical records with instrumentation on or off."""
    for family in ("gnp", "ring"):
        _, plain = _run(algorithm, family, 16)
        _, observed = _run(algorithm, family, 16, observe=True)
        assert _canonical(plain) == _canonical(observed)
        assert plain.spans is None
        assert observed.spans is not None and len(observed.spans) > 0


def test_unobserved_runs_make_no_count_or_probe_calls(monkeypatch):
    """Unobserved protocols guard every ``ctx.count``/``ctx.probe`` call
    site with ``ctx.obs is not None``, so they never make one."""

    def forbidden(self, *args, **kwargs):
        raise AssertionError("unobserved run called ctx.count or ctx.probe")

    monkeypatch.setattr(NodeContext, "count", forbidden)
    monkeypatch.setattr(NodeContext, "probe", forbidden)
    graph = GRAPH_FAMILIES["gnp"](16, 1, None)
    for runner in (run_randomized_mst, run_deterministic_mst, run_sleeping_mis):
        result = runner(graph, seed=1, verify=True)
        assert result.spans is None
