"""Unit and property tests for the quantized PMF toolkit."""

from __future__ import annotations

import math
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.estimation.pmf as pmf_module
from repro.errors import DistributionError
from repro.estimation.pmf import Pmf, gaussian_pmf, kl_divergence


def pmf_vectors(max_size: int = 40):
    """Hypothesis strategy for raw probability vectors (not yet normalized)."""
    return st.lists(st.floats(min_value=0.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=max_size).filter(lambda v: sum(v) > 1e-6)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Pmf([])

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            Pmf([0.5, -0.1, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(DistributionError):
            Pmf([0.5, float("nan"), 0.5])

    def test_rejects_infinite(self):
        with pytest.raises(DistributionError):
            Pmf([0.5, float("inf")])

    def test_rejects_zero_mass(self):
        with pytest.raises(DistributionError):
            Pmf([0.0, 0.0, 0.0])

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(DistributionError):
            Pmf([0.5, 0.9])

    def test_normalize_flag(self):
        pmf = Pmf([1.0, 3.0], normalize=True)
        assert pmf[0] == pytest.approx(0.25)
        assert pmf[1] == pytest.approx(0.75)

    def test_small_rounding_noise_is_fixed(self):
        pmf = Pmf([0.5, 0.5 + 1e-9])
        assert float(pmf.probs.sum()) == pytest.approx(1.0, abs=1e-15)

    def test_probs_are_read_only(self):
        pmf = Pmf([0.5, 0.5])
        with pytest.raises(ValueError):
            # rushlint: disable=RL005 (negative test: this write is the
            # read-only-view violation the assertion proves impossible)
            pmf.probs[0] = 1.0

    @given(pmf_vectors())
    def test_always_sums_to_one(self, raw):
        pmf = Pmf(raw, normalize=True)
        assert float(pmf.probs.sum()) == pytest.approx(1.0, abs=1e-9)


class TestImpulse:
    def test_impulse_mass(self):
        pmf = Pmf.impulse(5)
        assert pmf.tau_max == 5
        assert pmf[5] == 1.0
        assert pmf.mean() == 5.0
        assert pmf.std() == 0.0

    def test_impulse_padded(self):
        pmf = Pmf.impulse(2, tau_max=10)
        assert pmf.tau_max == 10
        assert pmf[2] == 1.0

    def test_impulse_negative_rejected(self):
        with pytest.raises(DistributionError):
            Pmf.impulse(-1)

    def test_impulse_tau_too_small(self):
        with pytest.raises(DistributionError):
            Pmf.impulse(5, tau_max=3)


class TestFromSamples:
    def test_counts(self):
        pmf = Pmf.from_samples([1, 1, 2, 3])
        assert pmf[1] == pytest.approx(0.5)
        assert pmf[2] == pytest.approx(0.25)
        assert pmf[3] == pytest.approx(0.25)

    def test_rounding(self):
        pmf = Pmf.from_samples([1.4, 1.6])
        assert pmf[1] == pytest.approx(0.5)
        assert pmf[2] == pytest.approx(0.5)

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Pmf.from_samples([])

    def test_rejects_negative_samples(self):
        with pytest.raises(DistributionError):
            Pmf.from_samples([-1.0, 2.0])

    def test_tau_max_too_small(self):
        with pytest.raises(DistributionError):
            Pmf.from_samples([5.0], tau_max=3)

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=50))
    def test_mean_matches_sample_mean(self, samples):
        pmf = Pmf.from_samples(samples)
        assert pmf.mean() == pytest.approx(float(np.mean(samples)), abs=1e-9)


class TestGaussian:
    def test_mean_location(self):
        pmf = Pmf.from_gaussian(50.0, 10.0)
        assert pmf.mean() == pytest.approx(50.0, abs=0.5)
        assert pmf.std() == pytest.approx(10.0, rel=0.1)

    def test_zero_std_is_impulse(self):
        pmf = Pmf.from_gaussian(7.0, 0.0)
        assert pmf[7] == 1.0

    def test_tails_absorbed(self):
        pmf = Pmf.from_gaussian(3.0, 5.0, tau_max=10)
        # mass below 0 lands in bin 0, and the vector still normalizes
        assert pmf[0] > 0.2
        assert float(pmf.probs.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_negative_params_rejected(self):
        with pytest.raises(DistributionError):
            Pmf.from_gaussian(-1.0, 5.0)
        with pytest.raises(DistributionError):
            Pmf.from_gaussian(5.0, -1.0)


GAUSSIANS_MEMO = dict(mean=st.floats(min_value=0.0, max_value=300.0),
                      std=st.floats(min_value=0.0, max_value=60.0))


class TestGaussianMemo:
    """The Gaussian DE classes read ``gaussian_pmf``: one bounded LRU in
    front of ``Pmf.from_gaussian``, keyed on its exact arguments."""

    @given(mean=GAUSSIANS_MEMO["mean"], std=GAUSSIANS_MEMO["std"],
           extra=st.integers(min_value=0, max_value=50))
    @settings(max_examples=100, deadline=None)
    def test_memo_equals_a_fresh_build_byte_for_byte(self, mean, std, extra):
        # The support the estimators ask for: six sigmas, and then some.
        tau_max = max(1, math.ceil(mean + 6.0 * std)) + extra
        fresh = Pmf.from_gaussian(mean, std, tau_max=tau_max)
        first = gaussian_pmf(mean, std, tau_max)
        again = gaussian_pmf(mean, std, tau_max)
        assert again is first
        assert first.probs.tobytes() == fresh.probs.tobytes()
        assert first.cdf().tobytes() == fresh.cdf().tobytes()
        assert first.fingerprint() == fresh.fingerprint()

    def test_memo_never_grows_past_its_bound(self):
        bound = gaussian_pmf.cache_info().maxsize
        assert bound == 128
        for k in range(3 * bound):
            gaussian_pmf(10.0 + k, 2.0, 40 + k)
            assert gaussian_pmf.cache_info().currsize <= bound
        assert gaussian_pmf.cache_info().currsize == bound

    def test_the_estimators_read_the_memo(self):
        from repro.estimation import EmpiricalEstimator, GaussianEstimator

        gaussian = GaussianEstimator(prior_mean=5.0)
        empirical = EmpiricalEstimator(prior_runtime=5.0,
                                       convolution_limit=1)
        empirical.observe_many([4.0, 5.0, 7.0])
        for estimator in (gaussian, empirical):
            before = gaussian_pmf.cache_info()
            first = estimator.estimate(20).pmf
            assert estimator.estimate(20).pmf is first
            after = gaussian_pmf.cache_info()
            assert after.hits + after.misses == before.hits + before.misses + 2


def _gaussian_erf(mean: float, std: float, tau_max: Optional[int]):
    """The bin-edge ``z`` array ``Pmf.from_gaussian`` evaluates, and the
    error function values it got back."""
    calls = []
    windowed = pmf_module._erf

    def recording(z):
        calls.append((z, windowed(z)))
        return calls[-1][1]

    with mock.patch.object(pmf_module, "_erf", recording):
        Pmf.from_gaussian(mean, std, tau_max=tau_max)
    (z, erf), = calls
    return z, erf


def _ulps_apart(a, b):
    """Per-element distance in units in the last place (ordered bits)."""
    def ordered(x):
        bits = np.asarray(x, dtype=np.float64).view(np.int64)
        return np.where(bits < 0, np.int64(-2**63) - bits, bits)
    return np.abs(ordered(a) - ordered(b))


#: Gaussian parameters as the estimator produces them: a mean demand,
#: a spread (large means over small spreads saturate the left tail), and
#: the default or an explicit support (a wide one saturates the right).
GAUSSIANS = dict(
    mean=st.floats(min_value=0.0, max_value=3000.0),
    std=st.floats(min_value=0.01, max_value=300.0),
    tau_max=st.none() | st.integers(min_value=1, max_value=4000))


class TestGaussianCdfBits:
    """The CDF is stdlib ``math.erf``; the saturated tails skip the call."""

    def test_math_erf_saturates_at_six(self):
        # The window in pmf._erf relies on exactly this.
        assert math.erf(6.0) == 1.0 and math.erf(-6.0) == -1.0
        for far in (8.0, 1e300, math.inf):
            assert math.erf(far) == 1.0 and math.erf(-far) == -1.0

    @given(**GAUSSIANS)
    @settings(max_examples=150, deadline=None)
    def test_windowed_erf_is_math_erf_bit_for_bit(self, mean, std, tau_max):
        z, erf = _gaussian_erf(mean, std, tau_max)
        elementwise = np.array([math.erf(v) for v in z.tolist()])
        assert erf.tobytes() == elementwise.tobytes()

    def test_both_tails_are_exercised(self):
        z, erf = _gaussian_erf(2000.0, 20.0, 4000)
        assert z[0] <= -6.0 and z[-1] >= 6.0
        assert erf[0] == -1.0 and erf[-1] == 1.0

    @given(**GAUSSIANS)
    @settings(max_examples=100, deadline=None)
    def test_within_four_ulp_of_scipy(self, mean, std, tau_max):
        special = pytest.importorskip("scipy.special")
        z, erf = _gaussian_erf(mean, std, tau_max)
        assert int(_ulps_apart(erf, special.erf(z)).max()) <= 4


class TestQuantile:
    def test_simple(self):
        pmf = Pmf([0.2, 0.3, 0.5])
        assert pmf.quantile(0.0) == 0
        assert pmf.quantile(0.2) == 0
        assert pmf.quantile(0.21) == 1
        assert pmf.quantile(0.5) == 1
        assert pmf.quantile(0.51) == 2
        assert pmf.quantile(1.0) == 2

    def test_out_of_range(self):
        pmf = Pmf([1.0])
        with pytest.raises(DistributionError):
            pmf.quantile(1.5)
        with pytest.raises(DistributionError):
            pmf.quantile(-0.1)

    @given(pmf_vectors(), st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_definition(self, raw, theta):
        pmf = Pmf(raw, normalize=True)
        q = pmf.quantile(theta)
        assert pmf.cdf_at(q) >= theta - 1e-9
        if q > 0:
            assert pmf.cdf_at(q - 1) < theta + 1e-9

    @given(pmf_vectors())
    def test_quantile_monotone_in_theta(self, raw):
        pmf = Pmf(raw, normalize=True)
        qs = [pmf.quantile(t) for t in (0.1, 0.5, 0.9, 0.99)]
        assert qs == sorted(qs)


class TestSupport:
    def test_support_bounds(self):
        pmf = Pmf([0.0, 0.5, 0.5, 0.0])
        assert pmf.support_min() == 1
        assert pmf.support_max() == 2

    def test_cdf_at_extremes(self):
        pmf = Pmf([0.4, 0.6])
        assert pmf.cdf_at(-1) == 0.0
        assert pmf.cdf_at(10) == 1.0


class TestTransforms:
    def test_padded(self):
        pmf = Pmf([0.5, 0.5]).padded(4)
        assert pmf.tau_max == 4
        assert pmf[4] == 0.0
        assert pmf[1] == pytest.approx(0.5)

    def test_padded_shrink_rejected(self):
        with pytest.raises(DistributionError):
            Pmf([0.25] * 4).padded(1)

    def test_rebinned(self):
        pmf = Pmf([0.1, 0.2, 0.3, 0.4]).rebinned(2)
        assert pmf.tau_max == 1
        assert pmf[0] == pytest.approx(0.3)
        assert pmf[1] == pytest.approx(0.7)

    def test_rebinned_identity(self):
        pmf = Pmf([0.4, 0.6])
        assert pmf.rebinned(1) is pmf

    def test_rebinned_bad_factor(self):
        with pytest.raises(DistributionError):
            Pmf([1.0]).rebinned(0)

    def test_mixture(self):
        a = Pmf([1.0, 0.0])
        b = Pmf([0.0, 1.0])
        mix = a.mixed_with(b, 0.25)
        assert mix[0] == pytest.approx(0.75)
        assert mix[1] == pytest.approx(0.25)

    def test_mixture_weight_validation(self):
        with pytest.raises(DistributionError):
            Pmf([1.0]).mixed_with(Pmf([1.0]), 1.5)

    def test_mixture_pads_supports(self):
        a = Pmf([1.0])
        b = Pmf([0.0, 0.0, 1.0])
        mix = a.mixed_with(b, 0.5)
        assert mix.tau_max == 2
        assert mix[0] == pytest.approx(0.5)
        assert mix[2] == pytest.approx(0.5)


class TestKlDivergence:
    def test_identical_is_zero(self):
        pmf = Pmf([0.3, 0.7])
        assert kl_divergence(pmf, pmf) == pytest.approx(0.0)

    def test_known_value(self):
        p = Pmf([0.5, 0.5])
        q = Pmf([0.25, 0.75])
        expected = 0.5 * math.log(0.5 / 0.25) + 0.5 * math.log(0.5 / 0.75)
        assert kl_divergence(p, q) == pytest.approx(expected)

    def test_infinite_when_support_escapes(self):
        p = Pmf([0.5, 0.5])
        q = Pmf([1.0, 0.0], normalize=True)
        assert kl_divergence(p, q) == math.inf

    def test_zero_p_bins_ignored(self):
        p = Pmf([1.0, 0.0], normalize=True)
        q = Pmf([0.5, 0.5])
        assert math.isfinite(kl_divergence(p, q))

    def test_mismatched_sizes_padded(self):
        p = Pmf([1.0])
        q = Pmf([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(math.log(2.0))

    @settings(max_examples=60)
    @given(pmf_vectors(max_size=20), pmf_vectors(max_size=20))
    def test_non_negative(self, raw_p, raw_q):
        p = Pmf(raw_p, normalize=True)
        q = Pmf(raw_q, normalize=True)
        assert kl_divergence(p, q) >= -1e-9

    @settings(max_examples=60)
    @given(pmf_vectors(max_size=20))
    def test_self_divergence_zero(self, raw):
        p = Pmf(raw, normalize=True)
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)


class TestDunder:
    def test_len_and_getitem(self):
        pmf = Pmf([0.25, 0.75])
        assert len(pmf) == 2
        assert pmf[1] == pytest.approx(0.75)

    def test_equality(self):
        assert Pmf([0.5, 0.5]) == Pmf([0.5, 0.5])
        assert Pmf([0.5, 0.5]) != Pmf([0.4, 0.6])
        assert Pmf([0.5, 0.5]).__eq__(42) is NotImplemented

    def test_mean_var(self):
        pmf = Pmf([0.5, 0.0, 0.5])
        assert pmf.mean() == pytest.approx(1.0)
        assert pmf.var() == pytest.approx(1.0)
