"""Risk-Reward Heuristic (RRH) scheduling — a Figure 4/6 baseline.

Reimplementation of the market-based heuristic of Irwin, Grit and Chase
(HPDC'04), cited as [20] by the paper: "scheduling decisions are made
based on the future utility gain and opportunity cost of reallocating
resources".  At every scheduling event each job is scored by comparing
two futures:

* *granted*: the job receives the container now and finishes around
  ``elapsed + remaining_work / (r + 1)``;
* *deferred*: the job waits roughly one task runtime for the next
  opportunity and finishes around ``elapsed + delay + remaining_work / r``
  (never, if it holds no container).

The score ``U(granted) - U(deferred)`` is the utility at risk if the
container goes elsewhere — the "reward" of investing minus the
opportunity cost of deferring.  Remaining work is estimated from the mean
observed task runtime (falling back to the job's prior), mirroring the
point estimates the original system used.

The behaviour the paper reports emerges naturally: a time-*critical* job
(steep sigmoid) nearing its budget stands to lose its whole priority by
waiting, so its score dwarfs everyone else's and RRH serves it with
everything — completing critical jobs well before their deadlines at the
expense of the merely time-*sensitive* class.  When no job's utility is
at risk the policy stays work-conserving and falls back to
earliest-deadline order.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.schedulers.base import Scheduler
from repro.schedulers.edf import edf_key

__all__ = ["RrhScheduler"]


class RrhScheduler(Scheduler):
    """Greedy risk/reward container granting.

    Parameters
    ----------
    default_runtime:
        Mean task runtime (slots) assumed for a job before any of its
        tasks completed; per-job priors from the job spec take precedence.
    """

    name = "RRH"

    def __init__(self, default_runtime: float = 10.0) -> None:
        super().__init__()
        if default_runtime <= 0:
            raise ValueError(f"default_runtime must be positive, got {default_runtime}")
        self._default_runtime = default_runtime

    def _mean_runtime(self, job) -> float:
        samples = job.runtime_samples()
        if samples:
            return sum(samples) / len(samples)
        if job.spec.prior_runtime is not None:
            return job.spec.prior_runtime
        return self._default_runtime

    def _finish_estimate(self, job, containers: int, now: int,
                         extra_wait: float = 0.0) -> float:
        """Estimated total completion-time with ``containers`` containers."""
        remaining = job.pending_count * self._mean_runtime(job)
        elapsed = job.elapsed(now)
        if containers <= 0:
            return math.inf if remaining > 0 else float(elapsed)
        return elapsed + extra_wait + remaining / containers

    def _score(self, job, now: int) -> float:
        """Utility at risk if this job's grant is deferred by one runtime."""
        r = job.running_count
        delay = self._mean_runtime(job)
        granted = job.utility.value(self._finish_estimate(job, r + 1, now))
        deferred = job.utility.value(
            self._finish_estimate(job, r, now, extra_wait=delay))
        return granted - deferred

    def select_job(self) -> Optional[str]:
        candidates = self._candidates()
        if not candidates:
            return None
        now = self.sim.now
        best_id: Optional[str] = None
        best_score = 0.0
        for job in candidates:
            score = self._score(job, now)
            if score > best_score + 1e-12:
                best_score = score
                best_id = job.job_id
        if best_id is not None:
            return best_id
        # No utility at risk anywhere; serve the earliest deadline instead.
        return min(candidates, key=edf_key).job_id
