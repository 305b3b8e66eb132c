"""Continuous time-slot mapping — Algorithm 4 of the paper.

The onion peeling layer decides *when* each job should finish; this module
decides *which containers run which tasks when*, under the practical
constraint that a task, once placed on a container, occupies it
continuously until it finishes (no preemption mid-task).

The cluster's ``C`` containers are modeled as ``C`` queues.  Jobs are
processed in order of their target completion-time ``T_i``; each job's
robust demand ``eta_i`` is split into tasks of the average container
runtime ``R_i`` and poured into the queues front-to-back: a queue keeps
accepting tasks of job ``i`` while its occupation is below ``T_i`` (so the
last task may overshoot to at most ``T_i + R_i``), then the residual moves
to the next queue.  Theorem 3 guarantees that whenever the staircase
condition (12) held for the targets, every job completes by
``T_i + R_i`` — which is why the onion layer pre-compensates deadlines by
``R_i``.

When the targets were *not* feasible (an overloaded cluster that the
planner intentionally lets degrade), the residual that fits nowhere is
force-assigned to the least-occupied queue and the affected jobs are
reported in :attr:`ContainerPlan.overflowed` — they will simply finish
late, mirroring the zero-utility "red rows" of the paper's web interface.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set

from repro.errors import ConfigurationError
from repro.obs import get_tracer

__all__ = ["MappingJob", "Segment", "ContainerPlan", "map_time_slots"]


@dataclass(frozen=True)
class MappingJob:
    """Input to the mapping stage for one job.

    ``demand`` is the robust workload ``eta_i`` (container-time-slots),
    ``runtime`` the average container runtime ``R_i`` and
    ``target_completion`` the onion-peeled ``T_i``, all in slots from now.

    ``tie_break`` orders jobs sharing a target completion-time: larger
    values run first.  The planner sets it to the utility still
    recoverable by finishing earlier, so a late-but-salvageable sigmoid
    job is packed ahead of a completion-time-insensitive one when both
    were deferred to the horizon.
    """

    job_id: str
    demand: float
    runtime: float
    target_completion: int
    tie_break: float = 0.0

    def __post_init__(self) -> None:
        if self.demand < 0 or not math.isfinite(self.demand):
            raise ConfigurationError(
                f"job {self.job_id!r}: demand must be finite and >= 0")
        if self.runtime <= 0 or not math.isfinite(self.runtime):
            raise ConfigurationError(
                f"job {self.job_id!r}: runtime must be finite and > 0")
        if self.target_completion < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: target completion must be >= 0")

    @property
    def task_count(self) -> int:
        """Number of whole tasks of duration ``runtime`` covering the demand."""
        return int(math.ceil(self.demand / self.runtime - 1e-9))


@dataclass(frozen=True)
class Segment:
    """A run of consecutive tasks of one job on one container queue."""

    job_id: str
    queue: int
    start: float
    tasks: int
    runtime: float

    @property
    def end(self) -> float:
        return self.start + self.tasks * self.runtime


@dataclass
class ContainerPlan:
    """The concrete container assignment produced by the mapping.

    The plan is both a record (segments, per-job completions) and a query
    interface: :meth:`allocation_at` answers "how many containers does each
    job hold at time t", which is what the CA unit reads to pick the next
    container grant.
    """

    capacity: int
    segments: List[Segment] = field(default_factory=list)
    completions: Dict[str, float] = field(default_factory=dict)
    overflowed: Set[str] = field(default_factory=set)
    _queue_segments: List[List[Segment]] = field(default_factory=list, repr=False)
    _queue_starts: List[List[float]] = field(default_factory=list, repr=False)
    _next_slot: Optional[Mapping[str, int]] = field(
        default=None, repr=False, compare=False)

    def completion(self, job_id: str) -> float:
        """The planned completion-time of a job (slots from now)."""
        return self.completions[job_id]

    @property
    def makespan(self) -> float:
        """Completion-time of the last job, 0 for an empty plan."""
        return max(self.completions.values(), default=0.0)

    def allocation_at(self, t: float) -> Dict[str, int]:
        """Containers held by each job at time ``t`` under this plan."""
        counts: Dict[str, int] = {}
        for starts, segs in zip(self._queue_starts, self._queue_segments):
            idx = bisect_right(starts, t) - 1
            if idx < 0:
                continue
            seg = segs[idx]
            if seg.start <= t < seg.end:
                counts[seg.job_id] = counts.get(seg.job_id, 0) + 1
        return counts

    def next_slot_allocation(self) -> Mapping[str, int]:
        """The assignment for the immediate next slot, read-only.

        The RUSH feedback cycle only ever *applies* this first column of
        the plan — a fresh plan is computed at the next scheduling event —
        but reads it once per free container, so it is computed once.
        """
        if self._next_slot is None:
            self._next_slot = MappingProxyType(self.allocation_at(0.0))
        return self._next_slot

    def _index(self) -> None:
        per_queue: List[List[Segment]] = [[] for _ in range(self.capacity)]
        for seg in self.segments:
            per_queue[seg.queue].append(seg)
        for segs in per_queue:
            segs.sort(key=lambda s: s.start)
        self._queue_segments = per_queue
        self._queue_starts = [[s.start for s in segs] for segs in per_queue]
        self._next_slot = None


def map_time_slots(jobs: Sequence[MappingJob], capacity: int) -> ContainerPlan:
    """Run Algorithm 4 and return the resulting container plan.

    Jobs are sorted by target completion-time; ties resolve by job id so
    the mapping is deterministic.  Each queue accepts whole tasks of a job
    while its occupation is still below the job's target, overshooting by
    less than one task runtime — the source of Theorem 3's ``T_i + R_i``
    completion bound.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    ids = [job.job_id for job in jobs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("job ids must be unique within one mapping")

    with get_tracer().span("mapping.solve", jobs=len(jobs),
                           capacity=capacity) as span:
        plan = ContainerPlan(capacity=capacity)
        occupation = [0.0] * capacity
        for job in sorted(jobs, key=lambda j: (j.target_completion,
                                               -j.tie_break, j.job_id)):
            remaining = job.task_count
            if remaining == 0:
                plan.completions[job.job_id] = 0.0
                continue
            finish = 0.0
            target = float(job.target_completion)
            for k in range(capacity):
                if remaining == 0:
                    break
                if occupation[k] >= target:
                    continue
                # Tasks placeable while the queue occupation stays below T_i;
                # the last one may overshoot to < T_i + R_i.
                fit = int(math.ceil((target - occupation[k]) / job.runtime
                                    - 1e-9))
                take = min(fit, remaining)
                if take <= 0:
                    continue
                seg = Segment(job_id=job.job_id, queue=k, start=occupation[k],
                              tasks=take, runtime=job.runtime)
                plan.segments.append(seg)
                occupation[k] = seg.end
                finish = max(finish, seg.end)
                remaining -= take
            while remaining > 0:
                # Infeasible targets: force the residue onto the
                # least-occupied queue, one task at a time, and flag the job
                # as overflowed.
                plan.overflowed.add(job.job_id)
                k = min(range(capacity), key=occupation.__getitem__)
                seg = Segment(job_id=job.job_id, queue=k, start=occupation[k],
                              tasks=1, runtime=job.runtime)
                plan.segments.append(seg)
                occupation[k] = seg.end
                finish = max(finish, seg.end)
                remaining -= 1
            plan.completions[job.job_id] = finish
        plan._index()
        span.note(makespan=plan.makespan, overflowed=len(plan.overflowed))
    return plan
