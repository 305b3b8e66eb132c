"""Distribution estimator (DE) interface.

Each job in RUSH owns a DE unit that watches the runtimes of its completed
tasks and periodically reports (Section IV):

* a quantized reference distribution ``phi_i`` of the job's *remaining*
  total demand ``v_i`` in container-time-slots, and
* the average container runtime ``R_i`` used by the continuous
  time-slot mapping.

Estimates carry an explicit ``bin_width`` so an estimator may coarsen its
quantization for very large demands and keep the WCDE bisection cheap; all
demand figures exposed to callers are already converted back to
container-time-slots.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

from repro import state as st
from repro.errors import ConfigurationError, EstimationError
from repro.estimation.pmf import Pmf

__all__ = ["DemandEstimate", "DistributionEstimator"]

#: The distribution of a job with no pending task, shared by every such
#: estimate: a :class:`Pmf` is immutable (its arrays are read-only).
_ZERO_DEMAND_PMF = Pmf.impulse(0)


@dataclass(frozen=True)
class DemandEstimate:
    """A DE unit's report for one job.

    Attributes
    ----------
    pmf:
        Quantized distribution of the remaining demand; bin ``l`` stands
        for ``l * bin_width`` container-time-slots.
    bin_width:
        Container-time-slots per bin (>= 1 in practice, but any positive
        value is accepted).
    container_runtime:
        The average container runtime ``R_i`` in slots.
    sample_count:
        How many completed-task runtime samples back this estimate.
    """

    pmf: Pmf
    bin_width: float
    container_runtime: float
    sample_count: int

    def __post_init__(self) -> None:
        if self.bin_width <= 0 or not math.isfinite(self.bin_width):
            raise ConfigurationError(f"bin_width must be positive, got {self.bin_width}")
        if self.container_runtime <= 0 or not math.isfinite(self.container_runtime):
            raise ConfigurationError(
                f"container_runtime must be positive, got {self.container_runtime}")
        if self.sample_count < 0:
            raise ConfigurationError(
                f"sample_count must be >= 0, got {self.sample_count}")

    def demand_at(self, bin_index: int) -> float:
        """Container-time-slots represented by ``bin_index``."""
        return bin_index * self.bin_width

    def mean_demand(self) -> float:
        """Expected remaining demand in container-time-slots."""
        return self.pmf.mean() * self.bin_width

    def quantile_demand(self, theta: float) -> float:
        """The theta-quantile of the remaining demand, in slots."""
        return self.pmf.quantile(theta) * self.bin_width


class DistributionEstimator(ABC):
    """Online estimator of one job's remaining-demand distribution.

    The resource manager calls :meth:`observe` whenever one of the job's
    tasks completes, and :meth:`estimate` whenever the scheduler needs a
    fresh report.  Subclasses implement :meth:`_report`; sample bookkeeping
    is shared here.
    """

    #: Bins above this count are coarsened by widening ``bin_width``.
    max_bins: int = 8192

    def __init__(self) -> None:
        self._samples: List[float] = []

    def observe(self, runtime: float) -> None:
        """Record the runtime (in slots) of one completed task."""
        if runtime <= 0 or not math.isfinite(runtime):
            raise EstimationError(f"task runtime must be positive, got {runtime}")
        self._samples.append(float(runtime))

    def observe_failure(self, wasted_runtime: float) -> None:
        """A task attempt failed after ``wasted_runtime`` slots (ignored
        by default; :class:`~repro.estimation.failure.FailureAwareEstimator`
        learns a retry model from it)."""

    def observe_many(self, runtimes: Iterable[float]) -> None:
        for runtime in runtimes:
            self.observe(runtime)

    @property
    def sample_count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[float]:
        """A copy of the recorded runtime samples."""
        return list(self._samples)

    def state_dict(self) -> Dict[str, Any]:
        """What this unit learned, as JSON values: its samples.  The
        constructor's priors are the factory's, rebuilt from the spec."""
        return {"samples": list(self._samples)}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back what :meth:`state_dict` wrote."""
        self._samples = [st.number(s) for s in st.array(state["samples"])]

    def estimate(self, pending_tasks: int) -> DemandEstimate:
        """Report the remaining-demand distribution for ``pending_tasks``."""
        if pending_tasks < 0:
            raise EstimationError(f"pending_tasks must be >= 0, got {pending_tasks}")
        return self._report(pending_tasks)

    @abstractmethod
    def _report(self, pending_tasks: int) -> DemandEstimate:
        """Build the estimate; ``pending_tasks`` is guaranteed >= 0."""

    # -- shared helpers ---------------------------------------------------

    def _sample_mean(self) -> float:
        return sum(self._samples) / len(self._samples)

    def _sample_std(self) -> float:
        n = len(self._samples)
        if n < 2:
            return 0.0
        mean = self._sample_mean()
        var = sum((s - mean) ** 2 for s in self._samples) / (n - 1)
        return math.sqrt(var)

    @classmethod
    def _choose_bin_width(cls, demand_upper: float) -> float:
        """Pick a bin width so the PMF support stays within ``max_bins``."""
        if demand_upper <= cls.max_bins:
            return 1.0
        return math.ceil(demand_upper / cls.max_bins)

    @staticmethod
    def _zero_demand_estimate(runtime: float, samples: int) -> DemandEstimate:
        """Estimate for a job with no pending tasks: an impulse at zero."""
        return DemandEstimate(pmf=_ZERO_DEMAND_PMF, bin_width=1.0,
                              container_runtime=max(runtime, 1e-9),
                              sample_count=samples)
