"""Scaling-fit helpers."""

from __future__ import annotations

import math

import pytest

from repro.analysis import fit_scaling, geometric_mean


class TestFitScaling:
    def test_perfect_log_fit(self):
        ns = [16, 64, 256, 1024]
        ys = [5 * math.log2(n) for n in ns]
        fit = fit_scaling(ns, ys, "log")
        assert fit.constant == pytest.approx(5.0)
        assert fit.ratio_spread == pytest.approx(1.0)

    def test_perfect_nlog_fit(self):
        ns = [16, 64, 256]
        ys = [2.5 * n * math.log2(n) for n in ns]
        fit = fit_scaling(ns, ys, "nlog")
        assert fit.constant == pytest.approx(2.5)
        assert fit.ratio_spread <= 1.01

    def test_wrong_model_has_drift(self):
        ns = [16, 64, 256, 1024]
        linear = [3 * n for n in ns]
        fit = fit_scaling(ns, linear, "log")
        assert fit.ratio_spread > 10  # linear data vs log model drifts hard

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            fit_scaling([1, 2], [1, 2], "cubic")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_scaling([], [], "log")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            fit_scaling([1, 2], [1], "log")


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
