"""Earliest-Deadline-First scheduling — a Figure 4/6 baseline.

Jobs are served "according to the order of their time budget": the job
with the earliest absolute deadline (``arrival + budget``) monopolizes the
free containers.  EDF is deadline-optimal for preemptive single-machine
queues but, as the paper's experiments show, it ignores completion-time
*sensitivity* — a time-insensitive job with a tight nominal budget can
starve a time-critical one with a looser budget.

Jobs without a finite budget sort last (effectively background work).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.schedulers.base import Scheduler

__all__ = ["EdfScheduler", "edf_key"]


def edf_key(job) -> tuple:
    """Sort key for earliest-absolute-deadline ordering of sim jobs.

    Shared by :class:`EdfScheduler`, RRH's fallback and the RUSH ladder's
    greedy-EDF floor, so all three rank identically.
    """
    deadline = job.spec.deadline
    if not math.isfinite(deadline):
        deadline = math.inf
    return (deadline, job.arrival, job.job_id)


class EdfScheduler(Scheduler):
    """Grant all containers to the job with the earliest absolute deadline."""

    name = "EDF"

    def select_job(self) -> Optional[str]:
        candidates = self._candidates()
        if not candidates:
            return None
        return min(candidates, key=edf_key).job_id
