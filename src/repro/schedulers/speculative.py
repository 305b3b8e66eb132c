"""Speculative execution — the related-work mitigation, as a wrapper.

The paper contrasts RUSH with the line of work that fights runtime
uncertainty through *speculative execution* (LATE and successors, its
refs [2], [10]–[12]): when a task looks like a straggler, launch a
duplicate attempt on an idle container and keep whichever finishes first.
Those systems provide no completion-time guarantees, but they do clip the
straggler tail — so a faithful reproduction should let any baseline be
combined with speculation and measured.

:class:`SpeculativeScheduler` wraps an arbitrary base policy.  Container
grants and lifecycle events pass straight through; only when the base
policy leaves containers idle does the wrapper look for running attempts
that have already executed longer than ``slowdown_threshold`` times the
job's typical task runtime (observed mean, falling back to the job's
prior) and requests a duplicate.  The duplicate's assumed ground-truth
duration is the median of the job's *completed* task durations — a fresh
attempt on a healthy container runs at typical speed.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.schedulers.base import Scheduler

__all__ = ["SpeculativeScheduler"]


class SpeculativeScheduler(Scheduler):
    """Add LATE-style speculative execution to any base policy.

    Parameters
    ----------
    base:
        The policy making the ordinary container-grant decisions.
    slowdown_threshold:
        An attempt is a straggler candidate once it has executed more than
        this multiple of the job's typical task runtime.
    min_samples:
        Completed-task samples a job needs before its tasks may be
        speculated (one cannot call a task slow without a baseline).
    """

    def __init__(self, base: Scheduler, *, slowdown_threshold: float = 1.5,
                 min_samples: int = 3) -> None:
        super().__init__()
        if slowdown_threshold <= 1.0:
            raise ConfigurationError(
                f"slowdown_threshold must be > 1, got {slowdown_threshold}")
        if min_samples < 1:
            raise ConfigurationError(
                f"min_samples must be >= 1, got {min_samples}")
        self._base = base
        self._threshold = slowdown_threshold
        self._min_samples = min_samples

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"{self._base.name}+spec"

    # -- delegation -------------------------------------------------------

    def bind(self, sim) -> None:
        super().bind(sim)
        self._base.bind(sim)

    def select_job(self) -> Optional[str]:
        return self._base.select_job()

    def on_job_arrival(self, job) -> None:
        self._base.on_job_arrival(job)

    def on_task_launched(self, job, task) -> None:
        self._base.on_task_launched(job, task)

    def on_task_complete(self, job, task) -> None:
        self._base.on_task_complete(job, task)

    def on_task_failed(self, job, task) -> None:
        self._base.on_task_failed(job, task)

    def on_job_complete(self, job) -> None:
        self._base.on_job_complete(job)

    def on_job_cancelled(self, job) -> None:
        self._base.on_job_cancelled(job)

    @property
    def planner_seconds(self) -> float:  # type: ignore[override]
        return self._base.planner_seconds

    @property
    def degradation_counts(self) -> Dict[str, int]:
        return self._base.degradation_counts

    # -- the speculation policy ---------------------------------------------

    def select_speculative(self) -> Optional[Tuple[str, str, int]]:
        now = self.sim.now
        best: Optional[Tuple[float, str, str, int]] = None
        for job in self.sim.active_jobs:
            samples = job.runtime_samples()
            if len(samples) < self._min_samples:
                continue
            typical = sum(samples) / len(samples)
            duplicate_duration = max(1, round(statistics.median(samples)))
            for task in job.running_attempts():
                if job.has_duplicate(task.logical_id):
                    continue  # already racing
                slowdown = task.executed / max(typical, 1e-9)
                if slowdown <= self._threshold:
                    continue
                if best is None or slowdown > best[0]:
                    best = (slowdown, job.job_id, task.logical_id,
                            duplicate_duration)
        if best is None:
            return None
        return best[1], best[2], best[3]
