"""Workload generation following the protocol of Section V-B.

The paper's end-to-end experiments create 100 jobs from an equal mix of
eight templates, each with a dataset size drawn uniformly between 1 and
10 GB, submitted as a Poisson process with a mean inter-arrival time of
130 seconds.  Jobs split 20/60/20 into time-critical, time-sensitive and
time-insensitive classes; priorities ``W`` are uniform integers in 1..5;
the sigmoid utility class is used (a constant utility for the insensitive
class); and each job's time budget is a configurable multiple (2.0, 1.5,
1.0 in the paper) of its runtime benchmarked with the whole cluster.

A ``time_scale`` knob shrinks every duration proportionally (betas are
rescaled to match) so continuous-integration runs stay fast while the
paper-scale experiment is one parameter away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.cluster.job import JobSpec
from repro.utility.base import UtilityFunction
from repro.utility.constant import ConstantUtility
from repro.utility.sigmoid import SigmoidUtility
from repro.workload.templates import PUMA_TEMPLATES, JobTemplate

__all__ = ["WorkloadConfig", "WorkloadGenerator", "generate_workload"]


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of one workload draw (paper defaults)."""

    n_jobs: int = 100
    capacity: int = 48
    mean_interarrival: float = 130.0
    budget_ratio: float = 2.0
    size_gb_range: Tuple[float, float] = (1.0, 10.0)
    sensitivity_mix: Tuple[float, float, float] = (0.2, 0.6, 0.2)
    priority_range: Tuple[int, int] = (1, 5)
    critical_beta: float = 0.5
    sensitive_beta: float = 0.02
    time_scale: float = 1.0
    failure_prob: float = 0.0
    #: "poisson" (the paper's process), "uniform" (fixed spacing with
    #: jitter) or "bursty" (a two-state modulated Poisson process that
    #: alternates calm stretches with arrival storms).
    arrival_process: str = "poisson"
    #: Burst intensity for the bursty process: the storm state arrives
    #: this many times faster than the calm state.
    burst_factor: float = 6.0
    templates: Tuple[JobTemplate, ...] = field(default=PUMA_TEMPLATES)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ConfigurationError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")
        if self.mean_interarrival < 0:
            raise ConfigurationError("mean_interarrival must be >= 0")
        if self.budget_ratio <= 0:
            raise ConfigurationError("budget_ratio must be positive")
        lo, hi = self.size_gb_range
        if not 0 < lo <= hi:
            raise ConfigurationError(f"bad size_gb_range {self.size_gb_range}")
        if abs(sum(self.sensitivity_mix) - 1.0) > 1e-9 or min(self.sensitivity_mix) < 0:
            raise ConfigurationError(
                f"sensitivity_mix must be a distribution, got {self.sensitivity_mix}")
        if not 0 < self.time_scale <= 10.0:
            raise ConfigurationError(f"time_scale must be in (0, 10], got {self.time_scale}")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ConfigurationError(
                f"failure_prob must be in [0, 1), got {self.failure_prob}")
        if self.arrival_process not in ("poisson", "uniform", "bursty"):
            raise ConfigurationError(
                f"unknown arrival_process {self.arrival_process!r}")
        if self.burst_factor < 1.0:
            raise ConfigurationError(
                f"burst_factor must be >= 1, got {self.burst_factor}")
        if not self.templates:
            raise ConfigurationError("at least one template is required")


class WorkloadGenerator:
    """Draws reproducible workloads from a :class:`WorkloadConfig`."""

    def __init__(self, config: WorkloadConfig, seed: int = 0) -> None:
        self.config = config
        self._seed = seed

    def generate(self) -> List[JobSpec]:
        """Draw the full job list for this generator's seed."""
        cfg = self.config
        rng = np.random.default_rng(self._seed)
        specs: List[JobSpec] = []
        arrival = 0.0
        sensitivities = rng.choice(
            ["critical", "sensitive", "insensitive"],
            size=cfg.n_jobs, p=list(cfg.sensitivity_mix))
        burst_state = False
        for k in range(cfg.n_jobs):
            if k > 0 and cfg.mean_interarrival > 0:
                mean_gap = cfg.mean_interarrival * cfg.time_scale
                if cfg.arrival_process == "poisson":
                    arrival += rng.exponential(mean_gap)
                elif cfg.arrival_process == "uniform":
                    arrival += rng.uniform(0.5 * mean_gap, 1.5 * mean_gap)
                else:  # bursty: two-state modulated Poisson, same mean rate
                    if rng.random() < 0.25:
                        burst_state = not burst_state
                    # calm gaps are stretched and storm gaps compressed so
                    # the long-run mean inter-arrival stays mean_gap
                    calm_gap = mean_gap * 2.0 * cfg.burst_factor / (
                        cfg.burst_factor + 1.0)
                    storm_gap = calm_gap / cfg.burst_factor
                    arrival += rng.exponential(
                        storm_gap if burst_state else calm_gap)
            template = cfg.templates[int(rng.integers(len(cfg.templates)))]
            size_gb = float(rng.uniform(*cfg.size_gb_range))
            durations = self._scaled_tasks(template, size_gb, rng)
            benchmark = template.benchmark_runtime(durations, cfg.capacity)
            budget = cfg.budget_ratio * benchmark
            priority = int(rng.integers(cfg.priority_range[0],
                                        cfg.priority_range[1] + 1))
            sensitivity = str(sensitivities[k])
            utility = self._utility_for(sensitivity, budget, priority)
            specs.append(JobSpec(
                job_id=f"job-{k:04d}",
                arrival=int(round(arrival)),
                task_durations=tuple(durations),
                utility=utility,
                priority=priority,
                budget=budget,
                benchmark_runtime=float(benchmark),
                sensitivity=sensitivity,
                template=template.name,
                prior_runtime=template.mean_runtime * cfg.time_scale,
                failure_prob=cfg.failure_prob))
        return specs

    # -- internals ---------------------------------------------------------

    def _scaled_tasks(self, template: JobTemplate, size_gb: float,
                      rng: np.random.Generator) -> List[int]:
        raw = template.sample_tasks(size_gb, rng)
        # rushlint: disable=RL003 (exact-one config sentinel: only a
        # literal 1.0 may skip rescaling — golden traces depend on the
        # untouched integer durations)
        if self.config.time_scale == 1.0:
            return raw
        return [max(1, int(round(d * self.config.time_scale))) for d in raw]

    def _utility_for(self, sensitivity: str, budget: float,
                     priority: int) -> UtilityFunction:
        cfg = self.config
        if sensitivity == "insensitive":
            return ConstantUtility(priority=priority)
        beta = cfg.critical_beta if sensitivity == "critical" else cfg.sensitive_beta
        # Betas are calibrated for time_scale=1; steeper slopes compensate
        # for shrunken budgets so utility *shapes* are scale-invariant.
        return SigmoidUtility(budget=budget, priority=priority,
                              beta=beta / cfg.time_scale)


def generate_workload(config: WorkloadConfig | None = None,
                      seed: int = 0) -> List[JobSpec]:
    """One-call workload draw with paper defaults."""
    return WorkloadGenerator(config or WorkloadConfig(), seed=seed).generate()
