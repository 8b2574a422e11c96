"""Observed output, pinned byte for byte.

Every configuration runs with ``monitors="all"`` for its problem, on a
gnp graph from ``GRAPH_FAMILIES`` through the problem's runner.  The
SHA-256 of the span log (``spans.to_dicts()``), the metrics registry
(``registry.dump()``) and the monitor report (``report.to_dict()``) is
pinned, so any change to span open/close order, extents, the registry or
what the monitors see shows here.  The digests do not depend on
``PYTHONHASHSEED``.

Two faulted runs do not return a result: the crash run ends with nodes
missing their output (``MSTOutputError`` from the runner), and the drop
run raises :class:`~repro.sim.errors.NodeCrashed`.  The simulator built
for the run is captured so the crash run's span log can still be read;
the NodeCrashed run leaves its spans open, so only its error message and
its monitor report are pinned.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core import run_deterministic_mst, run_randomized_mst
from repro.graphs import MSTOutputError
from repro.invariants import build_monitor_set
from repro.orchestrator import GRAPH_FAMILIES
from repro.problems import run_sleeping_mis
from repro.sim import SleepingSimulator
from repro.sim.errors import NodeCrashed
from repro.sim.transport import parse_channel_spec

RUNNERS = {
    "randomized": (run_randomized_mst, "mst"),
    "deterministic": (run_deterministic_mst, "mst"),
    "mis": (run_sleeping_mis, "mis"),
}

#: (algorithm, n, seed, faults) -> (span count, spans, registry, report).
PINNED = {
    ("randomized", 24, 100000, "dup:0.1"): (
        2568,
        "b0bb9d8f15aab5b8c032919c6858fae34cf4aab4cafd04b8a0b3eac3648df884",
        "52f0e961fefd2bf07b331990c73c73d2e10b0a3ee2263c5ecc0f7702918255e4",
        "b8aa8a9ef4e426118a5e118f522da5f9d8a6221e2c0f656302752f43d2f9323e",
    ),
    ("deterministic", 16, 3, None): (
        1223,
        "8e80fc20e5d01cf86906731ba33651da9bcacde9cdd90d6b49ac24ef1c805d19",
        "f40c6c212fa932bc2803e35376b9e775130c149c0c08cdc9078a4b20d987047c",
        "e26ea9df2a47f5ff2c623251198ba79fa300973920ec4241b36c81b4aaf7e9f7",
    ),
    ("mis", 32, 5, None): (
        209,
        "b1a2ff56dea48c306104909f738fe90fd6bbca9130ddd5ebf1cf1fbf331d90c8",
        "f02daa13a3b3867c243cb455c68ef5e8e0c2865811f13a2860fa5db6139bf15c",
        "aa6553c4a854426a1dd8afcb09761282171b3a7d33df25fa8fbc342be117498b",
    ),
    ("randomized", 24, 7, "crash:2@30"): (
        8730,
        "8a984d316086e73181fc7771b7cef1c25546b17b4eaab397127d83b5ec0202c8",
        "fed545a9584a443376d56210b4b49edb717544cbaedb649efc035335cfd08c3f",
        "58d3664a30dbb9d3a0739d138a6cbaf393d6f06fabdb1cf6beb0c72d4c3b7889",
    ),
}

CRASHED_MESSAGE = (
    "node 6 crashed in round 17 in span 'phase:1': RuntimeError('node 6: "
    "neighbour cache empty on port 1; run neighbor_refresh before local_moe')"
)
CRASHED_REPORT = "aea3b6246949024dc0e9abfea5b086db71084b6e74fb7c2a6ceff5498c124b8c"


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture
def simulators(monkeypatch):
    """Every :class:`SleepingSimulator` built while the test runs."""
    built = []
    original = SleepingSimulator.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(SleepingSimulator, "__init__", init)
    return built


def run_monitored(algorithm, n, seed, faults):
    runner, problem = RUNNERS[algorithm]
    graph = GRAPH_FAMILIES["gnp"](n, seed, None)
    monitors = build_monitor_set("all", problem=problem)
    kwargs = {"monitors": monitors}
    if faults is not None:
        kwargs["channel"] = parse_channel_spec(faults)
    return graph, monitors, lambda: runner(graph, seed, **kwargs)


@pytest.mark.parametrize("config", sorted(PINNED, key=str), ids=str)
def test_observed_output_is_pinned(config, simulators):
    count, spans_digest, registry_digest, report_digest = PINNED[config]
    _, monitors, run = run_monitored(*config)
    if config[3] is not None and config[3].startswith("crash"):
        with pytest.raises(MSTOutputError):
            run()
    else:
        run()
    obs = simulators[-1].obs
    assert len(obs.spans) == count
    assert digest(obs.spans.to_dicts()) == spans_digest
    assert digest(obs.registry.dump()) == registry_digest
    assert digest(monitors.report.to_dict()) == report_digest


def test_crashed_run_message_and_report_are_pinned():
    _, monitors, run = run_monitored("randomized", 16, 1, "drop:0.05")
    with pytest.raises(NodeCrashed) as caught:
        run()
    assert str(caught.value) == CRASHED_MESSAGE
    # A crashed run is finalized by its caller (the engine never got
    # there), as repro.graphs.verify_or_diagnose does.
    assert digest(monitors.finalize().to_dict()) == CRASHED_REPORT
