"""Empirical (histogram) estimator — an extension beyond the paper.

The paper ships a mean-impulse and a Gaussian DE class and notes that
other techniques "can be implemented as distribution estimation classes
and integrated into our system".  This class is such an integration: it
keeps the raw histogram of observed task runtimes and estimates the total
remaining demand either

* *exactly*, by convolving the per-task histogram ``pending_tasks`` times
  (for small task counts), or
* via the CLT using the *empirical* moments (for large task counts),

which captures skewed runtime distributions (e.g. stragglers) better than
a symmetric Gaussian while staying cheap.

:class:`TraceFittedEstimators` builds on it for *trace replay*: it pools
the realized task durations of a warm-up prefix of a workload per job
class (the spec's ``template`` label — for SWF traces the application
number) and hands every later arrival an :class:`EmpiricalEstimator`
pre-seeded with its class's empirical distribution.  This is the
calibrate-against-real-history loop of ROADMAP item 2; the calibration
ledger scores the resulting completion promises on the held-out suffix.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import EstimationError
from repro.estimation.base import DemandEstimate, DistributionEstimator
from repro.estimation.pmf import Pmf, gaussian_pmf

if TYPE_CHECKING:  # imported lazily: estimation must not pull in cluster
    from repro.cluster.job import JobSpec

__all__ = ["EmpiricalEstimator", "TraceFittedEstimators", "split_warmup"]


class EmpiricalEstimator(DistributionEstimator):
    """Histogram-based demand estimate with exact small-n convolution.

    Parameters
    ----------
    prior_runtime:
        Per-task runtime (slots) assumed before any sample arrives.
    convolution_limit:
        Largest pending-task count for which the exact n-fold convolution
        of the runtime histogram is computed; beyond it the estimator
        switches to the CLT on empirical moments.
    smoothing:
        Weight of a uniform smoothing mixture applied to the per-task
        histogram so the reference distribution has no spurious zero bins
        inside its range (zero bins make the KL ball degenerate).
    """

    def __init__(self, prior_runtime: float | None = None,
                 convolution_limit: int = 8,
                 smoothing: float = 0.01) -> None:
        super().__init__()
        if prior_runtime is not None and prior_runtime <= 0:
            raise EstimationError(f"prior_runtime must be positive, got {prior_runtime}")
        if convolution_limit < 1:
            raise EstimationError(
                f"convolution_limit must be >= 1, got {convolution_limit}")
        if not 0.0 <= smoothing < 1.0:
            raise EstimationError(f"smoothing must be in [0, 1), got {smoothing}")
        self._prior_runtime = prior_runtime
        self._convolution_limit = convolution_limit
        self._smoothing = smoothing

    def task_pmf(self) -> Pmf:
        """Smoothed per-task runtime histogram (bin width 1 slot)."""
        if self.sample_count == 0:
            if self._prior_runtime is None:
                raise EstimationError(
                    "EmpiricalEstimator has no runtime samples and no prior_runtime")
            return Pmf.impulse(int(round(self._prior_runtime)))
        base = Pmf.from_samples(self._samples)
        # rushlint: disable=RL003 (exact-zero config sentinel: only a
        # literal 0 skips the mixture; tiny smoothing weights are real)
        if self._smoothing == 0.0:
            return base
        lo, hi = base.support_min(), base.support_max()
        uniform = np.zeros(base.tau_max + 1)
        uniform[lo: hi + 1] = 1.0
        return base.mixed_with(Pmf(uniform, normalize=True), self._smoothing)

    def _mean_runtime(self) -> float:
        if self.sample_count > 0:
            return self._sample_mean()
        if self._prior_runtime is None:
            raise EstimationError(
                "EmpiricalEstimator has no runtime samples and no prior_runtime")
        return self._prior_runtime

    def _report(self, pending_tasks: int) -> DemandEstimate:
        runtime = self._mean_runtime()
        if pending_tasks == 0:
            return self._zero_demand_estimate(runtime, self.sample_count)
        task = self.task_pmf()
        if pending_tasks <= self._convolution_limit:
            probs = task.probs
            total = probs
            for _ in range(pending_tasks - 1):
                total = np.convolve(total, probs)
            pmf = Pmf(total, normalize=True)
            width = self._choose_bin_width(pmf.tau_max)
            if width > 1.0:
                pmf = pmf.rebinned(int(width))
            return DemandEstimate(pmf=pmf, bin_width=width,
                                  container_runtime=runtime,
                                  sample_count=self.sample_count)
        mean = task.mean() * pending_tasks
        std = task.std() * math.sqrt(pending_tasks)
        upper = mean + 6.0 * std
        width = self._choose_bin_width(upper)
        pmf = gaussian_pmf(mean / width, std / width,
                           max(1, int(math.ceil(upper / width))))
        return DemandEstimate(pmf=pmf, bin_width=width,
                              container_runtime=runtime,
                              sample_count=self.sample_count)


def split_warmup(specs: Sequence[JobSpec],
                 warmup_fraction: float = 0.4) -> Tuple[List[JobSpec], List[JobSpec]]:
    """Split a workload into (warm-up prefix, held-out suffix) by arrival.

    The prefix is what :meth:`TraceFittedEstimators.fit` learns from; the
    suffix is what a replay simulates and the calibration ledger scores.
    At least one job lands on each side whenever ``len(specs) >= 2``.
    """
    if not 0.0 < warmup_fraction < 1.0:
        raise EstimationError(
            f"warmup_fraction must be in (0, 1), got {warmup_fraction}")
    ordered = sorted(specs, key=lambda s: (s.arrival, s.job_id))
    if len(ordered) < 2:
        return list(ordered), []
    cut = int(round(len(ordered) * warmup_fraction))
    cut = min(max(cut, 1), len(ordered) - 1)
    return ordered[:cut], ordered[cut:]


class TraceFittedEstimators:
    """Per-class empirical duration distributions learned from a trace.

    Parameters
    ----------
    class_samples:
        Mapping of job-class label (``JobSpec.template``) to the observed
        per-task durations of that class, in slots.
    max_seed_samples:
        Cap on the samples seeded into each per-job estimator.  Larger
        pools are thinned *deterministically* (evenly spaced over the
        sorted pool), which preserves the distribution's shape while
        keeping the n-fold convolution cheap.
    convolution_limit / smoothing:
        Forwarded to each :class:`EmpiricalEstimator`.
    default_prior:
        Per-task runtime prior for jobs of a class never seen in the
        warm-up prefix (and carrying no ``prior_runtime`` of their own).
    """

    def __init__(self, class_samples: Mapping[str, Sequence[float]], *,
                 max_seed_samples: int = 128,
                 convolution_limit: int = 6,
                 smoothing: float = 0.01,
                 default_prior: float = 10.0) -> None:
        if max_seed_samples < 1:
            raise EstimationError(
                f"max_seed_samples must be >= 1, got {max_seed_samples}")
        if default_prior <= 0:
            raise EstimationError(
                f"default_prior must be positive, got {default_prior}")
        self._max_seed = max_seed_samples
        self._convolution_limit = convolution_limit
        self._smoothing = smoothing
        self._default_prior = default_prior
        self._seeds: Dict[str, Tuple[float, ...]] = {}
        pooled: List[float] = []
        for label in sorted(class_samples):
            samples = [float(s) for s in class_samples[label] if s > 0]
            if not samples:
                continue
            self._seeds[label] = self._thin(samples)
            pooled.extend(samples)
        # The cross-class pool backs jobs of classes absent from the
        # warm-up prefix: a weaker prior than a class fit, but still
        # empirical rather than parametric.
        self._pooled: Tuple[float, ...] = self._thin(pooled) if pooled else ()

    @classmethod
    def fit(cls, warmup_specs: Sequence[JobSpec], *,
            max_seed_samples: int = 128,
            convolution_limit: int = 6,
            smoothing: float = 0.01,
            default_prior: float = 10.0) -> "TraceFittedEstimators":
        """Pool the realized task durations of a warm-up prefix per class."""
        by_class: Dict[str, List[float]] = {}
        for spec in warmup_specs:
            label = spec.template or "untemplated"
            by_class.setdefault(label, []).extend(
                float(d) for d in spec.task_durations)
        return cls(by_class, max_seed_samples=max_seed_samples,
                   convolution_limit=convolution_limit, smoothing=smoothing,
                   default_prior=default_prior)

    def _thin(self, samples: Sequence[float]) -> Tuple[float, ...]:
        ordered = sorted(samples)
        n = len(ordered)
        if n <= self._max_seed:
            return tuple(ordered)
        # Evenly spaced ranks over the sorted pool: a deterministic
        # quantile sketch of the empirical distribution.
        idx = np.linspace(0, n - 1, self._max_seed)
        return tuple(ordered[int(i)] for i in np.round(idx))

    # -- introspection -----------------------------------------------------

    @property
    def classes(self) -> List[str]:
        """Fitted class labels, sorted."""
        return sorted(self._seeds)

    def seed_samples(self, label: str) -> Tuple[float, ...]:
        """The (thinned) duration pool a job of ``label`` is seeded with."""
        return self._seeds.get(label, self._pooled)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per-class sample count / mean / std of the seeded pools."""
        out: Dict[str, Dict[str, float]] = {}
        for label in self.classes:
            pool = np.asarray(self._seeds[label], dtype=float)
            out[label] = {
                "samples": float(pool.size),
                "mean": float(pool.mean()),
                "std": float(pool.std(ddof=1)) if pool.size > 1 else 0.0,
            }
        return out

    # -- the factory RushScheduler consumes --------------------------------

    def estimator_for(self, spec: JobSpec) -> DistributionEstimator:
        """A fresh DE unit for one job, pre-seeded with its class's fit.

        The job's own completed-task samples accumulate *on top of* the
        trace history, so online observation still sharpens the estimate
        — the fit is a head start, not a straitjacket.
        """
        prior = spec.prior_runtime
        if prior is None or prior <= 0:
            prior = self._default_prior
        estimator = EmpiricalEstimator(
            prior_runtime=prior,
            convolution_limit=self._convolution_limit,
            smoothing=self._smoothing)
        seeds = self.seed_samples(spec.template or "untemplated")
        if seeds:
            estimator.observe_many(seeds)
        return estimator
