"""Gaussian estimator — the paper's second DE class.

Learns the sample mean and sample variance of task runtimes and, invoking
the central limit theorem, reports a Gaussian for the total demand of the
pending tasks: mean ``n * m``, variance ``n * s^2`` (Section IV).  This is
the estimator used for every end-to-end experiment in the paper.

Before ``min_samples`` task runtimes have been observed the estimator
falls back to its prior (or to a deliberately wide default spread), which
reproduces the cold-start behaviour Figure 3 studies: with too few samples
the reported distribution simply cannot cover the true demand at the
requested percentile, no matter the entropy threshold.
"""

from __future__ import annotations

import math

from repro.errors import EstimationError
from repro.estimation.base import DemandEstimate, DistributionEstimator
from repro.estimation.pmf import gaussian_pmf

__all__ = ["GaussianEstimator"]


class GaussianEstimator(DistributionEstimator):
    """CLT-based demand estimate from task-runtime samples.

    Parameters
    ----------
    prior_mean, prior_std:
        Per-task runtime prior (slots) used while fewer than
        ``min_samples`` samples exist.  ``prior_std`` defaults to
        ``default_cv * prior_mean``.
    min_samples:
        Number of samples needed before the empirical moments are trusted.
    default_cv:
        Coefficient of variation assumed when no spread information is
        available (only the mean is known).
    """

    def __init__(self, prior_mean: float | None = None,
                 prior_std: float | None = None,
                 min_samples: int = 2,
                 default_cv: float = 0.5) -> None:
        super().__init__()
        if prior_mean is not None and prior_mean <= 0:
            raise EstimationError(f"prior_mean must be positive, got {prior_mean}")
        if prior_std is not None and prior_std < 0:
            raise EstimationError(f"prior_std must be >= 0, got {prior_std}")
        if min_samples < 1:
            raise EstimationError(f"min_samples must be >= 1, got {min_samples}")
        if default_cv < 0:
            raise EstimationError(f"default_cv must be >= 0, got {default_cv}")
        self._prior_mean = prior_mean
        self._prior_std = prior_std
        self._min_samples = min_samples
        self._default_cv = default_cv

    def task_moments(self) -> tuple[float, float]:
        """Current (mean, std) belief for a single task runtime in slots."""
        if self.sample_count >= self._min_samples:
            mean = self._sample_mean()
            std = self._sample_std()
            # rushlint: disable=RL003 (exact-zero sentinel: the sample
            # std of identical observations is exactly 0.0, the trigger
            # for the coefficient-of-variation fallback)
            if std == 0.0:
                std = self._default_cv * mean if self.sample_count < 2 else 0.0
            return mean, std
        if self.sample_count > 0 and self._prior_mean is None:
            mean = self._sample_mean()
            return mean, self._default_cv * mean
        if self._prior_mean is None:
            raise EstimationError(
                "GaussianEstimator has no runtime samples and no prior_mean")
        std = (self._prior_std if self._prior_std is not None
               else self._default_cv * self._prior_mean)
        return self._prior_mean, std

    def _report(self, pending_tasks: int) -> DemandEstimate:
        mean, std = self.task_moments()
        if pending_tasks == 0:
            return self._zero_demand_estimate(mean, self.sample_count)
        total_mean = mean * pending_tasks
        total_std = std * math.sqrt(pending_tasks)
        upper = total_mean + 6.0 * total_std
        width = self._choose_bin_width(upper)
        pmf = gaussian_pmf(total_mean / width, total_std / width,
                           max(1, int(math.ceil(upper / width))))
        return DemandEstimate(pmf=pmf, bin_width=width,
                              container_runtime=mean,
                              sample_count=self.sample_count)
