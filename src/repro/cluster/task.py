"""Tasks: the atomic unit of work occupying one container.

Following the paper's system model, a job consists of tasks that are "not
heavily correlated"; each task, once placed on a container, occupies it
continuously until it finishes (the continuity constraint of Section
III-C).  Task durations are drawn by the workload generator — the
simulator treats them as opaque ground truth that the schedulers can only
learn about through completed-task runtime samples.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SimulationError

__all__ = ["TaskState", "Task"]


class TaskState(enum.Enum):
    """Lifecycle of a task inside the simulator."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class Task:
    """One task with a fixed (but initially unknown to schedulers) duration.

    ``duration`` is in whole slots and must be >= 1.  ``start_time`` is the
    slot in which the task was launched; ``finish_time`` is the first slot
    boundary by which it is done (``start_time + duration``).
    """

    task_id: str
    job_id: str
    duration: int
    state: TaskState = TaskState.PENDING
    start_time: Optional[int] = None
    finish_time: Optional[int] = None
    remaining: int = field(default=0)
    #: Slots after which the task fails instead of progressing; None means
    #: the task is healthy.  Set by the simulator's failure injector when
    #: the job's spec carries a non-zero failure probability.
    fail_after: Optional[int] = None
    #: How many earlier attempts of the same logical task failed.
    attempt: int = 0
    #: Identity of the logical unit of work this attempt executes: the
    #: original attempt's task id, carried by every retry.  Defaults to
    #: this attempt's own task id.
    logical_id: str = ""
    #: Runtime the *schedulers* observe for this attempt, when it differs
    #: from the ground truth — set by the sample-corruption fault injector.
    #: None means the honest duration is reported.
    observed_duration: Optional[float] = None
    #: The duration this attempt was constructed with, before any fault
    #: injector stretched ``duration`` mid-flight.  Retries restart from
    #: here — otherwise straggler/burst inflation would compound across
    #: crash-retry cycles without bound.
    base_duration: int = 0

    def __post_init__(self) -> None:
        if self.duration < 1:
            raise SimulationError(
                f"task {self.task_id!r}: duration must be >= 1 slot, "
                f"got {self.duration}")
        if self.fail_after is not None and self.fail_after < 1:
            raise SimulationError(
                f"task {self.task_id!r}: fail_after must be >= 1 slot")
        if not self.logical_id:
            self.logical_id = self.task_id
        self.remaining = self.duration
        self.base_duration = self.duration

    def launch(self, now: int) -> None:
        """Transition to RUNNING at slot ``now``."""
        if self.state is not TaskState.PENDING:
            raise SimulationError(
                f"task {self.task_id!r} launched twice (state={self.state})")
        self.state = TaskState.RUNNING
        self.start_time = now
        self.remaining = self.duration

    def advance(self, now: int) -> bool:
        """Consume one slot of work; return True when the task ended.

        A task ends either by completing its full duration or by failing
        at its injected failure point; check :attr:`state` to tell which.
        """
        if self.state is not TaskState.RUNNING:
            raise SimulationError(
                f"task {self.task_id!r} advanced while {self.state}")
        self.remaining -= 1
        executed = self.duration - self.remaining
        if self.fail_after is not None and executed >= self.fail_after:
            self.state = TaskState.FAILED
            self.finish_time = now + 1
            return True
        if self.remaining <= 0:
            self.state = TaskState.COMPLETED
            self.finish_time = now + 1
            return True
        return False

    @property
    def executed(self) -> int:
        """Slots of work this attempt has consumed so far."""
        return self.duration - self.remaining

    @property
    def runtime_sample(self) -> float:
        """The runtime sample visible to schedulers and DE units.

        Ground truth unless a fault injector corrupted the observation;
        metrics always use the true ``duration``.
        """
        if self.observed_duration is not None:
            return float(self.observed_duration)
        return float(self.duration)

    def cancel(self) -> None:
        """Abort a pending or running attempt (its job was cancelled)."""
        if self.state not in (TaskState.PENDING, TaskState.RUNNING):
            raise SimulationError(
                f"task {self.task_id!r} cancelled while {self.state}")
        self.state = TaskState.CANCELLED

    def retry(self) -> "Task":
        """A fresh attempt of this logical task (same ground-truth work)."""
        if self.state is not TaskState.FAILED:
            raise SimulationError(
                f"task {self.task_id!r} retried while {self.state}")
        return Task(task_id=f"{self.logical_id}#{self.attempt + 1}",
                    job_id=self.job_id, duration=self.base_duration,
                    attempt=self.attempt + 1, logical_id=self.logical_id)
