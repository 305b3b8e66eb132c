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

import heapq
import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple, Union

import numpy as np

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


class MappingColumns(NamedTuple):
    """The jobs of one mapping as columns, aligned by position.

    One sequence per field of :class:`MappingJob`.  ``RushPlanner.plan``
    hands these to :func:`map_time_slots` instead of building a
    ``MappingJob`` per job, and runs :meth:`check` on them first;
    :func:`map_time_slots` converts a list of ``MappingJob`` once with
    :meth:`of`.
    """

    job_ids: Sequence[str]
    demands: Sequence[float]
    runtimes: Sequence[float]
    targets: Sequence[int]
    tie_breaks: Sequence[float]

    @classmethod
    def of(cls, jobs: Sequence[MappingJob]) -> "MappingColumns":
        """The columns of already validated jobs."""
        return cls([job.job_id for job in jobs], [job.demand for job in jobs],
                   [job.runtime for job in jobs],
                   [job.target_completion for job in jobs],
                   [job.tie_break for job in jobs])

    def check(self) -> None:
        """Raise what ``MappingJob`` raises for the first invalid job."""
        demands = np.asarray(self.demands, dtype=float)
        runtimes = np.asarray(self.runtimes, dtype=float)
        bad = ~(np.isfinite(demands) & (demands >= 0))
        bad |= ~(np.isfinite(runtimes) & (runtimes > 0))
        bad |= np.asarray(self.targets) < 0
        if bad.any():
            i = int(bad.argmax())
            MappingJob(self.job_ids[i], self.demands[i], self.runtimes[i],
                       self.targets[i], self.tie_breaks[i])


class Segment(NamedTuple):
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

    @classmethod
    def from_segments(cls, capacity: int, segments: List[Segment],
                      completions: Dict[str, float],
                      overflowed: Set[str]) -> "ContainerPlan":
        """The plan whose segments, in order, are ``segments`` — the
        per-queue index rebuilt as :func:`map_time_slots` fills it."""
        plan = cls(capacity=capacity, segments=segments,
                   completions=completions, overflowed=overflowed)
        plan._queue_segments = [[] for _ in range(capacity)]
        plan._queue_starts = [[] for _ in range(capacity)]
        for seg in segments:
            if not 0 <= seg.queue < capacity:
                raise ValueError(f"segment on queue {seg.queue} of "
                                 f"{capacity}")
            plan._queue_segments[seg.queue].append(seg)
            plan._queue_starts[seg.queue].append(seg.start)
        return plan

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

    def next_slot_allocation(self) -> Dict[str, int]:
        """The assignment for the immediate next slot: the one column of
        the plan RUSH applies, once per scheduling event."""
        return self.allocation_at(0.0)


def map_time_slots(jobs: Union[Sequence[MappingJob], MappingColumns],
                   capacity: int) -> ContainerPlan:
    """Run Algorithm 4 and return the resulting container plan.

    Jobs are sorted by target completion-time; ties resolve by job id so
    the mapping is deterministic.  Each queue accepts whole tasks of a job
    while its occupation is still below the job's target, overshooting by
    less than one task runtime — the source of Theorem 3's ``T_i + R_i``
    completion bound.  ``jobs`` are ``MappingJob`` records or checked
    :class:`MappingColumns`.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    cols = jobs if isinstance(jobs, MappingColumns) else MappingColumns.of(jobs)
    ids = cols.job_ids
    if len(set(ids)) != len(ids):
        raise ConfigurationError("job ids must be unique within one mapping")

    with get_tracer().span("mapping.solve", jobs=len(ids),
                           capacity=capacity) as span:
        plan = ContainerPlan(capacity=capacity)
        segments = plan.segments
        # The per-queue index fills as the queues do: a queue only ever
        # grows at its end, so its segments arrive in increasing start.
        queue_segments: List[List[Segment]] = [[] for _ in range(capacity)]
        queue_starts: List[List[float]] = [[] for _ in range(capacity)]
        plan._queue_segments = queue_segments
        plan._queue_starts = queue_starts
        occupation = [0.0] * capacity
        # Only queues below the job's target take tasks.  Targets rise
        # from job to job and occupations only grow, so the queues below
        # the current target are kept in index order in ``below`` and the
        # rest wait in a heap on their occupation until a target passes
        # them; a pour that reaches the target moves its queue back.  An
        # overflow may raise any queue past its heap key or the target:
        # the queue is then visited early and takes no task, as the walk
        # over every queue would skip it.
        below: List[int] = []
        waiting: List[Tuple[float, int]] = [(0.0, k) for k in range(capacity)]
        # Ids are unique, so the sort never compares past them.
        for target_completion, _, job_id, demand, runtime in sorted(zip(
                cols.targets, [-tie for tie in cols.tie_breaks], ids,
                cols.demands, cols.runtimes)):
            # MappingJob.task_count's expression.
            remaining = int(math.ceil(demand / runtime - 1e-9))
            if remaining == 0:
                plan.completions[job_id] = 0.0
                continue
            finish = 0.0
            target = float(target_completion)
            while waiting and waiting[0][0] < target:
                insort(below, heapq.heappop(waiting)[1])
            pos = 0
            while remaining and pos < len(below):
                k = below[pos]
                start = occupation[k]
                # Tasks placeable while the queue occupation stays below T_i;
                # the last one may overshoot to < T_i + R_i.
                fit = int(math.ceil((target - start) / runtime - 1e-9))
                take = min(fit, remaining)
                if take <= 0:
                    pos += 1
                    continue
                seg = Segment(job_id, k, start, take, runtime)
                segments.append(seg)
                queue_segments[k].append(seg)
                queue_starts[k].append(start)
                # Segment.end's own expression, evaluated once.
                end = occupation[k] = start + take * runtime
                if end > finish:
                    finish = end
                remaining -= take
                if end >= target:
                    del below[pos]
                    heapq.heappush(waiting, (end, k))
                else:
                    pos += 1
            while remaining > 0:
                # Infeasible targets: force the residue onto the
                # least-occupied queue, one task at a time, and flag the job
                # as overflowed.
                plan.overflowed.add(job_id)
                k = min(range(capacity), key=occupation.__getitem__)
                start = occupation[k]
                seg = Segment(job_id, k, start, 1, runtime)
                segments.append(seg)
                queue_segments[k].append(seg)
                queue_starts[k].append(start)
                end = occupation[k] = start + runtime
                if end > finish:
                    finish = end
                remaining -= 1
            plan.completions[job_id] = finish
        span.note(makespan=plan.makespan, overflowed=len(plan.overflowed))
    return plan
