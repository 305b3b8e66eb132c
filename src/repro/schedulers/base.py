"""Scheduler plug-in interface for the cluster substrate.

A scheduler answers one question per scheduling event — *which jobs get
the free containers?* (:meth:`Scheduler.allocate`, by default one
:meth:`~Scheduler.select_job` per container) — and may listen to lifecycle
events (arrivals, task launches/completions), exactly the surface the RUSH
CA unit has against the YARN resource manager.

Granting fewer containers than are free deliberately idles the rest for
this slot; the policies here are work-conserving and never do.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.job import SimJob
    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.task import Task

__all__ = ["Scheduler"]


class Scheduler(ABC):
    """Base class for container-granting policies."""

    #: Human-readable policy name used in results and reports.
    name: str = "scheduler"
    #: Wall-clock seconds spent planning (policies that do not plan: 0).
    planner_seconds: float = 0.0
    #: Whether :meth:`inject_solver_fault` has a solver to sabotage.
    has_solver: bool = False

    def __init__(self) -> None:
        self._sim: Optional["ClusterSimulator"] = None

    def bind(self, sim: "ClusterSimulator") -> None:
        """Attach the scheduler to a simulator (called by the simulator)."""
        if self._sim is not None:
            raise SimulationError(
                f"{type(self).__name__} is already bound to a simulator")
        self._sim = sim

    @property
    def sim(self) -> "ClusterSimulator":
        if self._sim is None:
            raise SimulationError(f"{type(self).__name__} is not bound to a simulator")
        return self._sim

    @property
    def degradation_counts(self) -> Dict[str, int]:
        """Fallback-rung usage counts (policies with no ladder: empty)."""
        return {}

    def inject_solver_fault(self, depth: int = 1) -> None:
        """Arm a forced failure of the next planning round's solve(s).

        Only meaningful where :attr:`has_solver` is true; callers check
        it first (the service answers 400, a fault injector stays quiet).
        """
        raise SimulationError(
            f"{type(self).__name__} has no solver to sabotage")

    # -- state ----------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """What the policy carries from one event to the next, as JSON
        values.  The baselines re-read the cluster at every event and
        carry nothing; their options come from the configuration."""
        return {}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back what :meth:`state_dict` wrote, on a policy built
        with the same options and already bound to its simulator."""
        if state:
            raise ValueError(f"{type(self).__name__} keeps no state, got "
                             f"{sorted(state)}")

    # -- the decision ---------------------------------------------------------

    @abstractmethod
    def select_job(self) -> Optional[str]:
        """Pick the job to receive the next free container, or ``None``."""

    def allocate(self, free: int) -> Iterable[str]:
        """Job ids for up to ``free`` containers; each is launched before
        the next is drawn, so each :meth:`select_job` sees the last."""
        for _ in range(free):
            job_id = self.select_job()
            if job_id is None:
                return
            yield job_id

    # -- lifecycle hooks (optional) ---------------------------------------------

    def on_job_arrival(self, job: "SimJob") -> None:
        """A job just arrived (override to set up per-job state)."""

    def on_task_launched(self, job: "SimJob", task: "Task") -> None:
        """A task of ``job`` was just granted a container."""

    def on_task_complete(self, job: "SimJob", task: "Task") -> None:
        """A task finished; ``task.duration`` is a fresh runtime sample."""

    def on_task_failed(self, job: "SimJob", task: "Task") -> None:
        """A task attempt failed partway; a retry is already queued."""

    def on_job_complete(self, job: "SimJob") -> None:
        """All of ``job``'s tasks finished."""

    def on_job_cancelled(self, job: "SimJob") -> None:
        """The client withdrew ``job`` before it completed.

        Its running attempts are already aborted and their containers
        freed; override to drop any per-job state.
        """

    # -- shared helpers ------------------------------------------------------------

    def _candidates(self) -> list:
        """Active jobs that still have pending tasks."""
        return [job for job in self.sim.active_jobs if job.pending_count > 0]
