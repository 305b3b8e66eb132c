"""Distribution estimation: PMF toolkit and the DE unit classes."""

from repro.estimation.base import DemandEstimate, DistributionEstimator
from repro.estimation.empirical import (EmpiricalEstimator,
                                        TraceFittedEstimators, split_warmup)
from repro.estimation.failure import FailureAwareEstimator
from repro.estimation.gaussian import GaussianEstimator
from repro.estimation.mean import MeanTimeEstimator
from repro.estimation.pmf import Pmf, kl_divergence

__all__ = [
    "Pmf",
    "kl_divergence",
    "DemandEstimate",
    "DistributionEstimator",
    "MeanTimeEstimator",
    "GaussianEstimator",
    "EmpiricalEstimator",
    "TraceFittedEstimators",
    "split_warmup",
    "FailureAwareEstimator",
]
