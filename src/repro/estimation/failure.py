"""Failure-aware demand estimation — the paper's stated future work.

The conclusion of the paper announces: "To further improve the robustness
of the scheduler, we plan to include the estimation of task failure
probability in our future work."  This module implements that plan as a
DE-class wrapper, exactly the extension path Section VI describes for new
estimators.

A :class:`FailureAwareEstimator` wraps any base estimator and

* learns the per-attempt failure probability online from the stream of
  completions and failures, with a Beta prior so cold jobs are not
  assumed immortal;
* tracks how much work failed attempts waste before dying;
* inflates the base demand estimate by the expected re-execution work:
  with failure probability ``p`` and mean wasted fraction ``w`` (of one
  task runtime), each logical task costs on average
  ``R * (1 + w * p / (1 - p))`` container-time-slots.

The inflation is applied to the estimate's ``bin_width``, so the whole
distribution — and therefore the WCDE worst case — scales consistently.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from repro import state as st
from repro.errors import EstimationError
from repro.estimation.base import DemandEstimate, DistributionEstimator

__all__ = ["FailureAwareEstimator"]


class FailureAwareEstimator(DistributionEstimator):
    """Wrap a base DE unit with online failure-probability estimation.

    Parameters
    ----------
    base:
        Any :class:`~repro.estimation.base.DistributionEstimator`; its
        report is rescaled by the expected re-execution multiplier.
    prior_failures, prior_attempts:
        Beta-prior pseudo-counts for the failure probability; the default
        encodes a weak 5 % prior (0.5 failures in 10 attempts).
    max_failure_rate:
        Upper clamp on the estimated rate, keeping the multiplier finite
        when a job's early attempts all fail.
    """

    def __init__(self, base: DistributionEstimator, *,
                 prior_failures: float = 0.5,
                 prior_attempts: float = 10.0,
                 max_failure_rate: float = 0.9) -> None:
        super().__init__()
        if prior_failures < 0 or prior_attempts <= 0:
            raise EstimationError("Beta prior pseudo-counts must be positive")
        if prior_failures >= prior_attempts:
            raise EstimationError("prior_failures must be < prior_attempts")
        if not 0.0 < max_failure_rate < 1.0:
            raise EstimationError(
                f"max_failure_rate must be in (0, 1), got {max_failure_rate}")
        self._base = base
        self._prior_failures = prior_failures
        self._prior_attempts = prior_attempts
        self._max_rate = max_failure_rate
        self._failures = 0
        self._wasted: List[float] = []

    # -- observations -------------------------------------------------------

    def observe(self, runtime: float) -> None:
        """A task attempt completed; forward the sample to the base DE."""
        super().observe(runtime)
        self._base.observe(runtime)

    def observe_failure(self, wasted_runtime: float) -> None:
        """A task attempt failed after executing ``wasted_runtime`` slots."""
        if wasted_runtime < 0 or not math.isfinite(wasted_runtime):
            raise EstimationError(
                f"wasted_runtime must be finite and >= 0, got {wasted_runtime}")
        self._failures += 1
        self._wasted.append(float(wasted_runtime))

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "failures": self._failures,
                "wasted": list(self._wasted),
                "base": self._base.state_dict()}

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        self._failures = st.integer(state["failures"])
        self._wasted = [st.number(w) for w in st.array(state["wasted"])]
        self._base.load_state(st.mapping(state["base"]))

    # -- learned failure model -----------------------------------------------

    def failure_rate(self) -> float:
        """Posterior-mean failure probability per task attempt."""
        attempts = self.sample_count + self._failures + self._prior_attempts
        rate = (self._failures + self._prior_failures) / attempts
        return min(rate, self._max_rate)

    def mean_wasted_fraction(self, container_runtime: float) -> float:
        """Average work a failed attempt wastes, as a fraction of ``R``.

        Falls back to 0.5 — a uniformly-timed failure point — before any
        failure has been observed.
        """
        if not self._wasted:
            return 0.5
        mean_wasted = sum(self._wasted) / len(self._wasted)
        return min(mean_wasted / max(container_runtime, 1e-9), 1.0)

    def work_multiplier(self, container_runtime: float) -> float:
        """Expected container-slots per logical task, in units of ``R``.

        A logical task needs on average ``p / (1 - p)`` failed attempts
        before its successful one, each wasting ``w * R`` slots:
        ``m = 1 + w * p / (1 - p)``.
        """
        rate = self.failure_rate()
        wasted = self.mean_wasted_fraction(container_runtime)
        return 1.0 + wasted * rate / (1.0 - rate)

    # -- reporting ---------------------------------------------------------

    def _report(self, pending_tasks: int) -> DemandEstimate:
        base = self._base.estimate(pending_tasks)
        if pending_tasks == 0:
            return base
        multiplier = self.work_multiplier(base.container_runtime)
        return DemandEstimate(
            pmf=base.pmf,
            bin_width=base.bin_width * multiplier,
            container_runtime=base.container_runtime,
            sample_count=base.sample_count)
