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
from typing import Any, Dict, List, Optional, Tuple

from repro import state as st
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
    over its lifetime — the original, then one retry per failure.  At most
    one attempt of a logical task is live at a time, so every completed
    attempt closes a distinct logical task, and the job is complete once
    as many attempts completed as it has logical tasks.
    """

    __slots__ = ("spec", "tasks", "_next_pending", "_first_running",
                 "_running", "_failed", "_pending", "_completed",
                 "completion_time")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.tasks: List[Task] = []
        for k, d in enumerate(spec.task_durations):
            task_id = f"{spec.job_id}/t{k}"
            self.tasks.append(Task(task_id=task_id, job_id=spec.job_id,
                                   duration=d, logical_id=task_id))
        self._next_pending = 0
        #: No attempt below this index is running, nor ever will be.
        self._first_running = 0
        self._pending = len(self.tasks)
        self._running = 0
        self._failed = 0
        self._completed = 0
        #: Absolute slot by which every logical task completed; ``None``
        #: until then.  Recorded once, by the attempt that completes the
        #: last open logical task: no other attempt of the job is live by
        #: then, so this is the latest finish time over every completed
        #: attempt.
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
        return self._completed

    @property
    def failed_count(self) -> int:
        """Number of failed task attempts so far."""
        return self._failed

    @property
    def is_complete(self) -> bool:
        return self._completed == len(self.spec.task_durations)

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
        order is part of the result.  Attempts launch in index order
        through :meth:`next_pending` (retries are appended), so every
        running one lies between the first still running and the pending
        pointer; a finished attempt never runs again.
        """
        if not self._running:
            return []
        tasks = self.tasks
        first = self._first_running
        while tasks[first].state is not TaskState.RUNNING:
            first += 1
        self._first_running = first
        return [now - t.start_time
                for t in tasks[first:self._next_pending + 1]
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
        # non-PENDING tasks lazily.
        self._pending -= 1
        self._running += 1

    def note_completed(self, task: Task) -> None:
        """Record a completed attempt: its logical task is done."""
        self._running -= 1
        self._completed += 1
        if self.is_complete:
            self.completion_time = task.finish_time

    def note_failed(self, task: Task) -> None:
        """Record a failed attempt and queue its retry."""
        self._running -= 1
        self._failed += 1
        self.tasks.append(task.retry())
        self._pending += 1

    def note_cancelled(self) -> None:
        """Record a *running* attempt aborted because its job was cancelled."""
        self._running -= 1

    def running_attempts(self) -> List[Task]:
        """Currently running attempts, in ``self.tasks`` order."""
        return [t for t in self.tasks if t.state is TaskState.RUNNING]

    def attempt_index(self, task: Task) -> int:
        """Where the running attempt ``task`` sits in ``self.tasks``."""
        tasks = self.tasks
        for index in range(self._first_running, len(tasks)):
            if tasks[index] is task:
                return index
        raise ValueError(f"{task.task_id!r} is not a running attempt of "
                         f"job {self.job_id!r}")

    # -- state ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Execution state as JSON values, without the spec.

        Attempts launch in ``self.tasks`` order and retries are appended
        after the spec's tasks, so ``tasks`` is: the launched originals
        (a prefix), the originals nobody touched yet, then the retries.
        Only the first and last parts are written — an untouched task is
        implied by the spec — so the state grows with launched attempts,
        not with the job's size.
        """
        tasks = self.tasks
        n = len(self.spec.task_durations)
        launched = min(self._next_pending, n)
        while launched < n and tasks[launched].state is not TaskState.PENDING:
            launched += 1
        return {
            "launched": [_attempt_row(t) for t in tasks[:launched]],
            "retries": [[t.logical_id] + _attempt_row(t) for t in tasks[n:]],
            "cursors": [self._next_pending, self._first_running],
            "counts": [self._pending, self._running, self._failed,
                       self._completed],
            "completion_time": self.completion_time,
        }

    @classmethod
    def from_state(cls, spec: JobSpec, state: Dict[str, Any]) -> "SimJob":
        """The job :meth:`state_dict` described; raises ``TypeError``,
        ``ValueError`` or ``KeyError`` on a malformed state."""
        job = cls(spec)
        tasks = job.tasks
        launched = st.array(state["launched"])
        if len(launched) > len(tasks):
            raise ValueError(f"job {spec.job_id!r}: {len(launched)} launched "
                             f"attempts of {len(tasks)} tasks")
        for k, row in enumerate(launched):
            _load_attempt(tasks[k], row)
        for row in st.array(state["retries"]):
            row = st.array(row)
            logical_id = st.string(row[0])
            attempt = st.integer(row[8])
            task = Task(task_id=f"{logical_id}#{attempt}", job_id=spec.job_id,
                        duration=1, attempt=attempt, logical_id=logical_id)
            _load_attempt(task, row[1:])
            tasks.append(task)
        job._next_pending, job._first_running = st.row(
            state["cursors"], st.integer, st.integer)
        job._pending, job._running, job._failed, job._completed = st.row(
            state["counts"], st.integer, st.integer, st.integer, st.integer)
        job.completion_time = _OPTIONAL_INT(state["completion_time"])
        return job


#: ``TaskState`` members in the order their index is written.
_STATES = tuple(TaskState)


def _attempt_row(task: Task) -> List[Any]:
    return [_STATES.index(task.state), task.duration, task.base_duration,
            task.remaining, task.start_time, task.finish_time,
            task.fail_after, task.attempt, task.observed_duration]


_OPTIONAL_INT = st.optional(st.integer)
#: One reader per :func:`_attempt_row` field.
_ROW_READERS = (st.integer, st.integer, st.integer, st.integer,
                _OPTIONAL_INT, _OPTIONAL_INT, _OPTIONAL_INT, st.integer,
                st.optional(st.number))


def _load_attempt(task: Task, row: Any) -> None:
    (state, task.duration, task.base_duration, task.remaining,
     task.start_time, task.finish_time, task.fail_after, attempt,
     task.observed_duration) = st.row(row, *_ROW_READERS)
    if not 0 <= state < len(_STATES):
        raise ValueError(f"attempt {task.task_id!r}: no task state {state}")
    task.state = _STATES[state]
    if attempt != task.attempt:
        raise ValueError(f"attempt {task.task_id!r} is numbered {attempt}")
