"""Job specifications and their mutable runtime counterparts.

A :class:`JobSpec` is the immutable description the workload generator
produces (and the trace format serializes): arrival slot, the ground-truth
task durations, the utility function and the client-visible metadata
(priority, budget, sensitivity class).  The simulator instantiates a
:class:`SimJob` around it to track execution state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.cluster.task import Task, TaskState
from repro.utility.base import UtilityFunction

__all__ = ["JobSpec", "SimJob"]


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job.

    Attributes
    ----------
    job_id:
        Unique identifier.
    arrival:
        Submission slot.
    task_durations:
        Ground-truth duration (slots) of each task.  Schedulers never see
        these directly; they only observe completed-task samples.
    utility:
        Utility function of the job's total completion-time (slots from
        arrival to the finish of its last task).
    priority:
        The client priority ``W`` (informational; the utility already
        encodes it).
    budget:
        Time budget ``B`` in slots; EDF sorts by ``arrival + budget`` and
        the latency metric is ``runtime - budget``.
    benchmark_runtime:
        Runtime of the job benchmarked with the whole cluster to itself
        (Section V-B); budgets are multiples of this.
    sensitivity:
        One of ``"critical"``, ``"sensitive"``, ``"insensitive"``.
    template:
        Name of the workload template the job came from.
    prior_runtime:
        Optional per-task runtime prior (slots) given to DE units before
        any sample exists — the analogue of clients benchmarking their
        application offline.
    failure_prob:
        Probability that any single task attempt fails partway and must
        be re-executed (the paper's stated future-work scenario).  The
        simulator injects failures; schedulers observe them through the
        ``on_task_failed`` hook.
    """

    job_id: str
    arrival: int
    task_durations: Tuple[int, ...]
    utility: UtilityFunction
    priority: float = 1.0
    budget: float = math.inf
    benchmark_runtime: float = math.nan
    sensitivity: str = "sensitive"
    template: str = ""
    prior_runtime: Optional[float] = None
    failure_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.arrival < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: arrival must be >= 0, got {self.arrival}")
        if len(self.task_durations) == 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: needs at least one task")
        if any(d < 1 for d in self.task_durations):
            raise ConfigurationError(
                f"job {self.job_id!r}: task durations must be >= 1 slot")
        if self.sensitivity not in ("critical", "sensitive", "insensitive"):
            raise ConfigurationError(
                f"job {self.job_id!r}: unknown sensitivity {self.sensitivity!r}")
        if not 0.0 <= self.failure_prob < 1.0:
            raise ConfigurationError(
                f"job {self.job_id!r}: failure_prob must be in [0, 1), "
                f"got {self.failure_prob}")

    @property
    def total_work(self) -> int:
        """Ground-truth total demand in container-time-slots."""
        return int(sum(self.task_durations))

    @property
    def deadline(self) -> float:
        """Absolute deadline slot, ``arrival + budget``."""
        return self.arrival + self.budget


class SimJob:
    """Mutable execution state of one job inside the simulator.

    A job consists of *logical* tasks (one per entry of
    ``spec.task_durations``); each logical task may see several *attempts*
    over its lifetime — the original, retries after failures, and
    speculative duplicates raced against a straggling original.  The job
    is complete once every logical task has a completed attempt.
    """

    __slots__ = ("spec", "tasks", "_next_pending", "_running", "_failed",
                 "_pending", "_completed_logical", "_live",
                 "_logical", "_speculative", "completion_time")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.tasks: List[Task] = [
            Task(task_id=f"{spec.job_id}/t{k}", job_id=spec.job_id, duration=d)
            for k, d in enumerate(spec.task_durations)
        ]
        self._next_pending = 0
        self._pending = len(self.tasks)
        self._running = 0
        self._failed = 0
        self._speculative = 0
        self._completed_logical: set = set()
        self._live: Dict[str, int] = {t.logical_id: 1 for t in self.tasks}
        self._logical = len(spec.task_durations)
        #: Absolute slot by which every logical task completed; ``None``
        #: until then.  Recorded once, by the attempt that completes the
        #: last open logical task: no attempt of the job finishes later
        #: (its siblings are cancelled on the spot), so this is the latest
        #: finish time over every completed attempt.
        self.completion_time: Optional[int] = None

    # -- identity passthroughs -------------------------------------------

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def arrival(self) -> int:
        return self.spec.arrival

    @property
    def utility(self) -> UtilityFunction:
        return self.spec.utility

    # -- state queries -----------------------------------------------------

    @property
    def pending_count(self) -> int:
        return self._pending

    @property
    def running_count(self) -> int:
        return self._running

    @property
    def completed_count(self) -> int:
        """Number of *logical* tasks with a completed attempt."""
        return len(self._completed_logical)

    @property
    def failed_count(self) -> int:
        """Number of failed task attempts so far."""
        return self._failed

    @property
    def is_complete(self) -> bool:
        return len(self._completed_logical) == self._logical

    def runtime_samples(self) -> List[float]:
        """Observed runtimes of completed tasks, in completion order.

        These are the samples schedulers may legitimately see; a fault
        injector may have corrupted them away from the ground truth.
        """
        return [t.runtime_sample for t in self.tasks
                if t.state is TaskState.COMPLETED]

    def running_task_ages(self, now: int) -> List[int]:
        """Slots each currently-running task has been executing.

        In ``self.tasks`` order: callers sum floats over the ages, so the
        order is part of the result.
        """
        if not self._running:
            return []
        return [now - t.start_time for t in self.tasks
                if t.state is TaskState.RUNNING and t.start_time is not None]

    def elapsed(self, now: int) -> int:
        """Slots since submission at time ``now``."""
        return max(0, now - self.spec.arrival)

    # -- state transitions (driven by the simulator) ----------------------

    def next_pending(self) -> Optional[Task]:
        """The next task to launch, or None when none is pending."""
        while self._next_pending < len(self.tasks):
            task = self.tasks[self._next_pending]
            if task.state is TaskState.PENDING:
                return task
            self._next_pending += 1
        return None

    def note_launched(self) -> None:
        # The pending pointer is not advanced here: next_pending() skips
        # non-PENDING tasks lazily, which stays correct when the launched
        # attempt was an appended duplicate rather than the scan head.
        self._pending -= 1
        self._running += 1

    def note_completed(self, task: Task) -> bool:
        """Record a completed attempt; True if its logical task was open.

        A late speculative sibling completing in the same slot as the
        winner returns False — its result is discarded.
        """
        self._running -= 1
        self._live[task.logical_id] -= 1
        if task.logical_id in self._completed_logical:
            return False
        self._completed_logical.add(task.logical_id)
        if self.is_complete:
            self.completion_time = task.finish_time
        return True

    def note_failed(self, task: Task) -> Optional[Task]:
        """Record a failed attempt; queue a retry if no sibling survives.

        Returns the queued retry, or None when another attempt of the same
        logical task is still live (a speculative sibling keeps running).
        """
        self._running -= 1
        self._failed += 1
        self._live[task.logical_id] -= 1
        if self._live[task.logical_id] > 0:
            return None
        replacement = task.retry()
        self.tasks.append(replacement)
        self._pending += 1
        self._live[task.logical_id] += 1
        return replacement

    def note_cancelled(self, task: Task) -> None:
        """Record an aborted *running* speculative attempt."""
        self._running -= 1
        self._live[task.logical_id] -= 1

    def cancel_pending_duplicates(self, logical_id: str) -> None:
        """Withdraw queued (never launched) duplicates of a logical task."""
        for task in self.tasks:
            if (task.logical_id == logical_id
                    and task.state is TaskState.PENDING):
                task.cancel()
                self._pending -= 1
                self._live[logical_id] -= 1

    def speculate(self, logical_id: str, duration: int) -> Task:
        """Queue a speculative duplicate of a running logical task.

        ``duration`` is the duplicate's ground-truth runtime, chosen by
        the caller (typically the job's median task duration: a fresh
        attempt on a healthy container runs at typical speed).
        """
        if logical_id in self._completed_logical:
            raise ConfigurationError(
                f"logical task {logical_id!r} already completed")
        if self._live.get(logical_id, 0) < 1:
            raise ConfigurationError(
                f"logical task {logical_id!r} has no live attempt to race")
        self._speculative += 1
        duplicate = Task(
            task_id=f"{logical_id}~s{self._speculative}",
            job_id=self.spec.job_id, duration=duration,
            logical_id=logical_id)
        self.tasks.append(duplicate)
        self._pending += 1
        self._live[logical_id] += 1
        return duplicate

    def running_attempts(self) -> List[Task]:
        """Currently running attempts (for straggler detection)."""
        return [t for t in self.tasks if t.state is TaskState.RUNNING]

    def has_duplicate(self, logical_id: str) -> bool:
        """Whether more than one attempt of the logical task is live."""
        return self._live.get(logical_id, 0) > 1
