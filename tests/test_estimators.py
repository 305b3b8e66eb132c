"""Tests for the distribution estimator (DE) classes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, EstimationError
from repro.estimation import (
    DemandEstimate,
    EmpiricalEstimator,
    GaussianEstimator,
    MeanTimeEstimator,
    Pmf,
)


class TestDemandEstimate:
    def test_validation(self):
        pmf = Pmf.impulse(3)
        with pytest.raises(ConfigurationError):
            DemandEstimate(pmf, bin_width=0, container_runtime=1, sample_count=0)
        with pytest.raises(ConfigurationError):
            DemandEstimate(pmf, bin_width=1, container_runtime=0, sample_count=0)
        with pytest.raises(ConfigurationError):
            DemandEstimate(pmf, bin_width=1, container_runtime=1, sample_count=-1)

    def test_demand_conversions(self):
        est = DemandEstimate(Pmf.impulse(10), bin_width=5.0,
                             container_runtime=3.0, sample_count=4)
        assert est.demand_at(10) == 50.0
        assert est.mean_demand() == pytest.approx(50.0)
        assert est.quantile_demand(0.9) == pytest.approx(50.0)


class TestZeroDemandEstimate:
    """A job with no pending task reports one shared impulse at zero."""

    ESTIMATORS = [MeanTimeEstimator(prior_runtime=3.0),
                  GaussianEstimator(prior_mean=3.0, prior_std=1.0),
                  EmpiricalEstimator(prior_runtime=3.0)]

    def test_every_estimator_shares_one_pmf(self):
        pmfs = [de.estimate(pending_tasks=0).pmf for de in self.ESTIMATORS]
        assert all(pmf is pmfs[0] for pmf in pmfs)
        assert pmfs[0] == Pmf.impulse(0)
        # Shared safely: tests/test_pmf.py pins that a Pmf's arrays are
        # read-only.
        assert not pmfs[0].probs.flags.writeable

    def test_wcde_cache_fingerprint_is_unchanged(self):
        """The WCDE cache keys on ``DemandEstimate.fingerprint()``: the
        shared impulse must hash exactly as a freshly built one did."""
        for de in self.ESTIMATORS:
            estimate = de.estimate(pending_tasks=0)
            fresh = DemandEstimate(Pmf.impulse(0), bin_width=1.0,
                                   container_runtime=3.0, sample_count=0)
            assert estimate.fingerprint() == fresh.fingerprint()
            assert estimate.fingerprint() == (
                bytes.fromhex("eecf48da92c7c9e2865c6c2316277085"), 1.0)


class TestObservation:
    def test_rejects_bad_runtimes(self):
        de = MeanTimeEstimator(prior_runtime=10)
        with pytest.raises(EstimationError):
            de.observe(0.0)
        with pytest.raises(EstimationError):
            de.observe(-5.0)
        with pytest.raises(EstimationError):
            de.observe(float("inf"))

    def test_sample_bookkeeping(self):
        de = MeanTimeEstimator(prior_runtime=10)
        de.observe_many([3.0, 4.0])
        assert de.sample_count == 2
        assert de.samples == [3.0, 4.0]
        de.samples.append(99.0)  # returned list is a copy
        assert de.sample_count == 2

    def test_negative_pending_rejected(self):
        de = MeanTimeEstimator(prior_runtime=10)
        with pytest.raises(EstimationError):
            de.estimate(-1)


class TestMeanTimeEstimator:
    def test_impulse_at_mean_times_pending(self):
        de = MeanTimeEstimator()
        de.observe_many([10.0, 20.0])
        est = de.estimate(pending_tasks=4)
        assert est.pmf.support_min() == est.pmf.support_max() == 60
        assert est.container_runtime == pytest.approx(15.0)
        assert est.sample_count == 2

    def test_prior_fallback(self):
        de = MeanTimeEstimator(prior_runtime=12.0)
        est = de.estimate(pending_tasks=2)
        assert est.mean_demand() == pytest.approx(24.0)
        assert est.sample_count == 0

    def test_no_samples_no_prior(self):
        with pytest.raises(EstimationError):
            MeanTimeEstimator().estimate(1)

    def test_bad_prior(self):
        with pytest.raises(EstimationError):
            MeanTimeEstimator(prior_runtime=-1.0)

    def test_zero_pending(self):
        de = MeanTimeEstimator(prior_runtime=10.0)
        est = de.estimate(0)
        assert est.mean_demand() == 0.0
        assert est.pmf[0] == 1.0

    def test_bin_width_coarsens_for_huge_demand(self):
        de = MeanTimeEstimator(prior_runtime=1e5)
        est = de.estimate(pending_tasks=10)
        assert est.bin_width > 1.0
        assert est.pmf.tau_max <= de.max_bins
        assert est.mean_demand() == pytest.approx(1e6, rel=0.01)


class TestGaussianEstimator:
    def test_clt_scaling(self):
        de = GaussianEstimator(min_samples=2)
        rng = np.random.default_rng(1)
        de.observe_many(rng.normal(60, 20, size=200).clip(min=1.0))
        est = de.estimate(pending_tasks=100)
        mean, std = de.task_moments()
        assert est.mean_demand() == pytest.approx(100 * mean, rel=0.02)
        assert est.pmf.std() * est.bin_width == pytest.approx(
            10 * std, rel=0.05)

    def test_prior_used_before_min_samples(self):
        de = GaussianEstimator(prior_mean=50.0, prior_std=5.0, min_samples=3)
        de.observe(100.0)  # one sample is below min_samples
        est = de.estimate(pending_tasks=4)
        assert est.mean_demand() == pytest.approx(200.0, rel=0.02)

    def test_samples_without_prior_use_default_cv(self):
        de = GaussianEstimator(min_samples=5, default_cv=0.5)
        de.observe(40.0)
        mean, std = de.task_moments()
        assert mean == 40.0 and std == 20.0

    def test_no_information_raises(self):
        with pytest.raises(EstimationError):
            GaussianEstimator().estimate(1)

    def test_validation(self):
        with pytest.raises(EstimationError):
            GaussianEstimator(prior_mean=-1)
        with pytest.raises(EstimationError):
            GaussianEstimator(prior_mean=1, prior_std=-1)
        with pytest.raises(EstimationError):
            GaussianEstimator(min_samples=0)
        with pytest.raises(EstimationError):
            GaussianEstimator(default_cv=-0.5)

    def test_identical_samples_collapse_to_impulse(self):
        de = GaussianEstimator(min_samples=2)
        de.observe_many([30.0, 30.0, 30.0])
        est = de.estimate(pending_tasks=2)
        assert est.pmf.support_min() == est.pmf.support_max() == 60

    def test_zero_pending(self):
        de = GaussianEstimator(prior_mean=10.0)
        est = de.estimate(0)
        assert est.mean_demand() == 0.0

    def test_more_samples_tighten_the_estimate(self):
        rng = np.random.default_rng(2)
        truth = rng.normal(60, 20, size=500).clip(min=1.0)
        few = GaussianEstimator(prior_mean=60, prior_std=40, min_samples=2)
        few.observe_many(truth[:3])
        many = GaussianEstimator(prior_mean=60, prior_std=40, min_samples=2)
        many.observe_many(truth)
        est_few = few.estimate(50)
        est_many = many.estimate(50)
        # both should be near the true total, many-samples much closer
        true_total = 50 * truth.mean()
        assert abs(est_many.mean_demand() - true_total) <= \
            abs(est_few.mean_demand() - true_total) + 1e-6


class TestEmpiricalEstimator:
    def test_exact_convolution_small_n(self):
        de = EmpiricalEstimator(convolution_limit=4, smoothing=0.0)
        de.observe_many([2.0, 4.0])
        est = de.estimate(pending_tasks=2)
        # sum of two iid uniform{2,4}: {4: .25, 6: .5, 8: .25}
        assert est.pmf[4] == pytest.approx(0.25)
        assert est.pmf[6] == pytest.approx(0.5)
        assert est.pmf[8] == pytest.approx(0.25)

    def test_clt_fallback_large_n(self):
        de = EmpiricalEstimator(convolution_limit=4)
        de.observe_many([2.0, 4.0] * 10)
        est = de.estimate(pending_tasks=100)
        assert est.mean_demand() == pytest.approx(300.0, rel=0.05)

    def test_smoothing_fills_support_gaps(self):
        de = EmpiricalEstimator(smoothing=0.2)
        de.observe_many([2.0, 6.0])
        task = de.task_pmf()
        assert task[4] > 0.0  # interior gap smoothed

    def test_prior_impulse(self):
        de = EmpiricalEstimator(prior_runtime=5.0)
        est = de.estimate(pending_tasks=3)
        assert est.mean_demand() == pytest.approx(15.0)

    def test_no_information_raises(self):
        with pytest.raises(EstimationError):
            EmpiricalEstimator().estimate(2)

    def test_validation(self):
        with pytest.raises(EstimationError):
            EmpiricalEstimator(prior_runtime=0)
        with pytest.raises(EstimationError):
            EmpiricalEstimator(convolution_limit=0)
        with pytest.raises(EstimationError):
            EmpiricalEstimator(smoothing=1.0)


class TestEstimatorConvergence:
    """Figure 3's premise: estimates stabilize as samples accumulate."""

    @pytest.mark.parametrize("estimator_factory", [
        lambda: GaussianEstimator(min_samples=2),
        lambda: EmpiricalEstimator(),
    ])
    def test_quantile_approaches_truth(self, estimator_factory):
        rng = np.random.default_rng(42)
        samples = rng.normal(60, 20, size=400).clip(min=1.0)
        de = estimator_factory()
        de.observe_many(samples)
        est = de.estimate(pending_tasks=100)
        # true total: N(6000, 200^2); its 90th percentile ~ 6256
        q90 = est.quantile_demand(0.9)
        assert 5800 <= q90 <= 6800
