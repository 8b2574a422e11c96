"""The array engine's capability table, its one ``require`` check, and
the docs/performance.md feature matrix that must agree with both."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.graphs import ring_graph, verify_or_diagnose
from repro.sim import DropChannel, PerfectChannel
from repro.sim.capabilities import (
    ARRAY_ALGORITHMS,
    ARRAY_REJECTED_KWARGS,
    ARRAY_SIM_OPTIONS,
    require,
)
from repro.sim.errors import UnsupportedFeatureError

PERFORMANCE_DOC = Path(__file__).resolve().parents[2] / "docs" / "performance.md"

#: Each matrix row of docs/performance.md -> the ``(algorithm, sim_kwargs)``
#: probes its array-column mark stands for.
ROW_PROBES = {
    "`Randomized-MST` (both terminations, `max_phases`)": [
        ("Randomized-MST", {}),
    ],
    "`Deterministic-MST`, GHS comparators": [
        ("Deterministic-MST", {}),
        ("LogStar-MST", {}),
        ("Traditional-GHS", {}),
        ("Pipelined-GHS", {}),
    ],
    "`Sleeping-MIS` (`--problem mis`, see [problems.md](problems.md))": [
        ("Sleeping-MIS", {}),
    ],
    "perfect channel": [
        ("Randomized-MST", {"channel": PerfectChannel()}),
    ],
    "fault channels (`--faults`)": [
        ("Randomized-MST", {"channel": DropChannel(0.1)}),
    ],
    "CONGEST accounting (strict + lenient)": [
        ("Randomized-MST", {"strict_congest": True, "congest_factor": 2}),
        ("Randomized-MST", {"strict_congest": False}),
    ],
    "`trace=` / `observe=` / `track_knowledge=`": [
        ("Randomized-MST", {"trace": True}),
        ("Randomized-MST", {"max_trace_events": 10}),
        ("Randomized-MST", {"observe": True}),
        ("Randomized-MST", {"obs_registry": object()}),
        ("Randomized-MST", {"track_knowledge": True}),
    ],
    "invariant monitors (`--monitors`)": [
        ("Randomized-MST", {"monitors": "all"}),
    ],
}


def _matrix_rows():
    """``{feature: (coroutine_mark, array_mark)}`` from the doc's table."""
    text = PERFORMANCE_DOC.read_text(encoding="utf-8")
    section = text.split("### Supported feature matrix", 1)[1]
    rows = {}
    for line in section.splitlines()[1:]:
        if rows and not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[1] in ("✓", "✗"):
            rows[cells[0]] = (cells[1], cells[2])
    return rows


def _supported(algorithm, sim_kwargs):
    try:
        require("array", algorithm, sim_kwargs)
    except UnsupportedFeatureError:
        return False
    return True


class TestFeatureMatrixDoc:
    def test_every_row_is_probed(self):
        assert set(_matrix_rows()) == set(ROW_PROBES)

    @pytest.mark.parametrize("feature", sorted(ROW_PROBES))
    def test_array_mark_matches_require(self, feature):
        coroutine, array = _matrix_rows()[feature]
        assert coroutine == "✓"
        for algorithm, sim_kwargs in ROW_PROBES[feature]:
            assert require("coroutine", algorithm, sim_kwargs) == "coroutine"
            assert _supported(algorithm, sim_kwargs) == (array == "✓"), (
                feature,
                algorithm,
                sim_kwargs,
            )

    def test_probes_cover_the_table(self):
        probed = [probe for probes in ROW_PROBES.values() for probe in probes]
        assert set(ARRAY_ALGORITHMS) <= {algorithm for algorithm, _ in probed}
        keys = {key for _, sim_kwargs in probed for key in sim_kwargs}
        assert set(ARRAY_REJECTED_KWARGS) <= keys
        assert "channel" in keys


class TestRequire:
    def test_supported_options_pass(self):
        assert require("array", "Randomized-MST", dict(ARRAY_SIM_OPTIONS)) == "array"

    def test_unknown_option_named(self):
        with pytest.raises(UnsupportedFeatureError, match=r"simulator options \(bogus\)"):
            require("array", "Randomized-MST", {"bogus": 1})

    def test_fault_channel_checked_before_observers(self):
        with pytest.raises(UnsupportedFeatureError, match="fault specs"):
            require(
                "array",
                "Randomized-MST",
                {"channel": DropChannel(0.1), "monitors": "all"},
            )


class TestVerifyOrDiagnose:
    def test_reraises_unsupported_feature_error(self):
        from repro.core import run_randomized_mst

        graph = ring_graph(8, seed=0)
        with pytest.raises(UnsupportedFeatureError, match="fault specs"):
            verify_or_diagnose(
                graph,
                lambda: run_randomized_mst(
                    graph, seed=0, engine="array", channel=DropChannel(0.1)
                ),
            )
