"""Tests for the WCDE bisection search (Algorithm 2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.wcde import solve_wcde, solve_wcde_batch, worst_case_demand
from repro.estimation.pmf import Pmf, kl_divergence

from .oracles import linear_scan_eta, mixed_path_rows


def reference_pmfs(max_size: int = 25):
    return st.lists(st.floats(min_value=0.01, max_value=10.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=2, max_size=max_size)


class TestValidation:
    def test_bad_theta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde(gaussian_pmf, 1.2, 0.5)

    def test_bad_delta(self, gaussian_pmf):
        with pytest.raises(ConfigurationError):
            solve_wcde(gaussian_pmf, 0.9, -0.5)
        with pytest.raises(ConfigurationError):
            solve_wcde(gaussian_pmf, 0.9, float("nan"))


class TestAnchors:
    def test_zero_delta_returns_reference_quantile(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 0.9, 0.0)
        assert result.eta_bin == gaussian_pmf.quantile(0.9)
        assert result.eta_bin == result.reference_quantile

    def test_huge_delta_hits_support_max(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 0.9, 1e9)
        assert result.eta_bin == gaussian_pmf.support_max()

    def test_theta_one_hits_support_max(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 1.0, 0.1)
        assert result.eta_bin == gaussian_pmf.support_max()
        assert result.iterations == 0

    def test_impulse_reference_is_fixed_point(self):
        """An impulse has single-point support: no robustness margin exists."""
        pmf = Pmf.impulse(10, tau_max=20)
        result = solve_wcde(pmf, 0.9, 5.0)
        assert result.eta_bin == 10

    def test_eta_never_below_reference_quantile(self, skewed_pmf):
        for delta in (0.0, 0.1, 0.5, 2.0):
            result = solve_wcde(skewed_pmf, 0.9, delta)
            assert result.eta_bin >= result.reference_quantile


class TestMonotonicity:
    def test_monotone_in_delta(self, gaussian_pmf):
        etas = [solve_wcde(gaussian_pmf, 0.9, d).eta_bin
                for d in (0.0, 0.1, 0.3, 0.7, 1.3, 3.0)]
        assert etas == sorted(etas)

    def test_monotone_in_theta(self, gaussian_pmf):
        etas = [solve_wcde(gaussian_pmf, t, 0.7).eta_bin
                for t in (0.1, 0.5, 0.9, 0.99)]
        assert etas == sorted(etas)

    @settings(max_examples=40, deadline=None)
    @given(reference_pmfs(),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=2.0))
    def test_monotone_in_delta_property(self, raw, theta, d1, d2):
        pmf = Pmf(raw, normalize=True)
        lo, hi = sorted((d1, d2))
        assert (solve_wcde(pmf, theta, lo).eta_bin
                <= solve_wcde(pmf, theta, hi).eta_bin)


class TestWorstDistribution:
    def test_worst_pmf_within_ball(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 0.9, 0.7)
        assert kl_divergence(result.worst_pmf, gaussian_pmf) <= 0.7 + 1e-6

    def test_worst_pmf_sits_on_the_boundary(self, gaussian_pmf):
        """The adversary's distribution has CDF(eta - 1) exactly theta."""
        theta = 0.9
        result = solve_wcde(gaussian_pmf, theta, 0.7)
        if result.eta_bin > result.reference_quantile:
            assert result.worst_pmf.cdf_at(result.eta_bin - 1) == pytest.approx(
                theta, abs=1e-6)

    def test_worst_kl_reported(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 0.9, 0.7)
        assert result.worst_kl == pytest.approx(
            kl_divergence(result.worst_pmf, gaussian_pmf), abs=1e-9)
        assert result.worst_kl <= 0.7 + 1e-9


class TestBisectionBehaviour:
    def test_iteration_count_logarithmic(self, gaussian_pmf):
        result = solve_wcde(gaussian_pmf, 0.9, 0.7)
        assert result.iterations <= math.ceil(math.log2(len(gaussian_pmf))) + 1

    def test_worst_case_demand_wrapper(self, gaussian_pmf):
        assert worst_case_demand(gaussian_pmf, 0.9, 0.7) == \
            solve_wcde(gaussian_pmf, 0.9, 0.7).eta_bin

    @settings(max_examples=40, deadline=None)
    @given(reference_pmfs(),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=3.0))
    def test_eta_within_support(self, raw, theta, delta):
        pmf = Pmf(raw, normalize=True)
        result = solve_wcde(pmf, theta, delta)
        assert 0 <= result.eta_bin <= pmf.support_max()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(reference_pmfs(), min_size=1, max_size=4),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.01, max_value=3.0))
    def test_eta_is_maximal(self, raws, theta, delta):
        """The adversary cannot push the quantile past eta — on every row
        of a batch mixing shortcut, narrow and wide references."""
        from repro.core.rem import rem_min_kl

        rows = [Pmf(raw, normalize=True) for raw in raws] + mixed_path_rows()
        for pmf, result in zip(rows, solve_wcde_batch(rows, theta, delta)):
            assert result.eta_bin == linear_scan_eta(pmf, theta, delta)
            if result.eta_bin < pmf.support_max():
                # Pushing the quantile beyond eta needs CDF(eta) < theta,
                # which costs more than the entropy budget.
                assert rem_min_kl(pmf, result.eta_bin, theta) > delta - 1e-9


class TestRobustnessSemantics:
    def test_coverage_improves_with_delta(self):
        """Allocating the robust eta covers a perturbed true distribution.

        Build a reference that underestimates the truth; the plain
        theta-quantile of the reference misses the true quantile, while a
        sufficiently robust eta covers it — the scenario of Figure 3.
        """
        reference = Pmf.from_gaussian(90.0, 10.0, tau_max=220)
        truth = Pmf.from_gaussian(100.0, 15.0, tau_max=220)
        theta = 0.9
        true_quantile = truth.quantile(theta)
        naive = reference.quantile(theta)
        assert naive < true_quantile  # the naive allocation under-covers
        divergence = kl_divergence(truth, reference)
        robust = solve_wcde(reference, theta, divergence + 0.05).eta_bin
        assert robust >= true_quantile
