"""The shared per-seed statistics helpers (repro.analysis.stats)."""

from __future__ import annotations

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import mean, percentile

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestMeanAndStd:
    def test_mean_matches_statistics_module(self):
        values = [1.0, 2.5, 4.0, 8.0]
        assert mean(values) == pytest.approx(statistics.fmean(values))

    def test_mean_of_empty_is_zero(self):
        assert mean([]) == 0.0


class TestPercentile:
    def test_interpolates_between_ranks(self):
        assert percentile([10.0, 20.0], 50.0) == pytest.approx(15.0)

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError, match="in \\[0, 100\\]"):
            percentile([1.0], 120.0)

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_median_bounded_by_extremes(self, values):
        median = percentile(values, 50.0)
        assert min(values) <= median <= max(values)
