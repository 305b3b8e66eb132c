"""The concrete fault injectors.

Each injector manufactures one species of the completion-time uncertainty
the paper's robust formulation is meant to absorb:

* :class:`SpecFailureInjector` — the workload's own per-spec task failure
  probability (the behaviour previously hard-coded in the simulator);
* :class:`ContainerCrashInjector` — a busy container dies mid-task and
  may stay revoked for a few slots (shared-cloud preemption);
* :class:`StragglerInjector` — a running task silently slows down,
  stretching its remaining work (the LATE-paper scenario);
* :class:`DemandBurstInjector` — a correlated burst window inflating the
  ground-truth duration of every task launched during it (co-tenant
  interference hitting the whole cluster at once);
* :class:`SampleCorruptionInjector` — the runtime sample reported to the
  scheduler's DE unit is corrupted while the ground truth is untouched
  (mispredicted completion-times, the PCS failure mode);
* :class:`JobKillInjector` — every running attempt of one job is killed
  at once, forcing a task-level resubmit of its in-flight work;
* :class:`SolverBudgetInjector` — arms a forced solver failure on the
  scheduler, exercising the degradation ladder at a chosen depth.

All injectors follow the decision/variation stream contract of
:class:`repro.faults.base.FaultInjector`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Mapping, Set, Type

from repro import state as st
from repro.core.degradation import check_fault_depth
from repro.errors import ConfigurationError
from repro.faults.base import FaultContext, FaultInjector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.job import SimJob
    from repro.cluster.task import Task

__all__ = [
    "SpecFailureInjector",
    "ContainerCrashInjector",
    "StragglerInjector",
    "DemandBurstInjector",
    "SampleCorruptionInjector",
    "JobKillInjector",
    "SolverBudgetInjector",
    "INJECTOR_REGISTRY",
    "injector_from_spec",
]


class SpecFailureInjector(FaultInjector):
    """Arm per-launch failure points per the job spec's ``failure_prob``.

    Reproduces the simulator's legacy built-in behaviour: each launched
    task of a job with ``failure_prob = p`` fails partway with
    probability ``p`` (scaled by the plan intensity), at a failure point
    uniform over its duration.
    """

    kind = "spec_failure"

    def __init__(self, rate: float = 1.0) -> None:
        # ``rate`` multiplies the per-spec probability (1.0 = as specified).
        super().__init__(rate)

    def on_launch(self, ctx: FaultContext, job: "SimJob",
                  task: "Task") -> None:
        p = job.spec.failure_prob * self.rate
        if p <= 0.0:
            return
        if self._fires(ctx, rate=p):
            task.fail_after = int(self.vary.integers(1, task.duration + 1))
            ctx.record(self.kind, task.task_id, job_id=job.job_id,
                       fail_after=task.fail_after)


class ContainerCrashInjector(FaultInjector):
    """Crash busy containers; optionally revoke them for a few slots.

    Every slot, each busy container dies with probability
    ``rate * intensity``: its running task fails on the next advance and,
    when ``revoke_slots > 0``, the container stays offline for that many
    slots (a shared-cloud preemption/revocation).
    """

    kind = "container_crash"

    def __init__(self, rate: float = 0.01, revoke_slots: int = 0) -> None:
        super().__init__(rate)
        if revoke_slots < 0:
            raise ConfigurationError(
                f"revoke_slots must be >= 0, got {revoke_slots}")
        self.revoke_slots = revoke_slots

    def on_slot(self, ctx: FaultContext) -> None:
        for container in ctx.containers:
            task = container.task
            if task is None:
                continue
            if not self._fires(ctx):
                continue
            task.fail_after = task.executed + 1
            if self.revoke_slots:
                container.offline_until = ctx.now + 1 + self.revoke_slots
            ctx.record(self.kind, task.task_id,
                       container=container.container_id,
                       job_id=task.job_id, revoke_slots=self.revoke_slots)

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "revoke_slots": self.revoke_slots}


class StragglerInjector(FaultInjector):
    """Silently stretch a running task's remaining work.

    Every slot, each running task straggles with probability
    ``rate * intensity``: its remaining work is multiplied by
    ``slowdown`` (duration grows in step, so the eventual runtime sample
    honestly reports the longer execution).  Each task attempt straggles
    at most once — repeated multiplicative stretching would make the
    expected drift of long tasks positive, and they would never finish.
    """

    kind = "straggler"

    def __init__(self, rate: float = 0.02, slowdown: float = 2.0) -> None:
        super().__init__(rate)
        if slowdown <= 1.0:
            raise ConfigurationError(
                f"slowdown must be > 1, got {slowdown}")
        self.slowdown = slowdown
        self._struck: Set[str] = set()

    def reset(self) -> None:
        self._struck = set()

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "struck": sorted(self._struck)}

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        self._struck = {st.string(task_id)
                        for task_id in st.array(state["struck"])}

    def on_slot(self, ctx: FaultContext) -> None:
        for container in ctx.containers:
            task = container.task
            if task is None or task.remaining <= 0:
                continue
            if task.task_id in self._struck:
                continue
            if not self._fires(ctx):
                continue
            self._struck.add(task.task_id)
            extra = max(1, int(round(task.remaining * (self.slowdown - 1.0))))
            task.remaining += extra
            task.duration += extra
            ctx.record(self.kind, task.task_id, job_id=task.job_id,
                       extra_slots=extra)

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "slowdown": self.slowdown}


class DemandBurstInjector(FaultInjector):
    """Correlated demand bursts: a window inflating every launch at once.

    Every slot, a burst starts with probability ``rate * intensity`` and
    lasts ``width`` slots.  Every task launched inside a burst window has
    its ground-truth duration multiplied by ``magnitude`` — the faults
    are *correlated across jobs*, the regime where independent per-task
    estimates are most wrong.
    """

    kind = "demand_burst"

    def __init__(self, rate: float = 0.01, magnitude: float = 1.5,
                 width: int = 3) -> None:
        super().__init__(rate)
        if magnitude <= 1.0:
            raise ConfigurationError(
                f"magnitude must be > 1, got {magnitude}")
        if width < 1:
            raise ConfigurationError(f"width must be >= 1, got {width}")
        self.magnitude = magnitude
        self.width = width
        self._burst_until = -1

    def reset(self) -> None:
        self._burst_until = -1

    def state_dict(self) -> Dict[str, Any]:
        return {**super().state_dict(), "burst_until": self._burst_until}

    def load_state(self, state: Dict[str, Any]) -> None:
        super().load_state(state)
        self._burst_until = st.integer(state["burst_until"])

    @property
    def bursting(self) -> bool:
        return self._burst_until >= 0

    def on_slot(self, ctx: FaultContext) -> None:
        if ctx.now >= self._burst_until:
            self._burst_until = -1
        fires = self._fires(ctx)
        if self._burst_until < 0 and fires:
            self._burst_until = ctx.now + self.width
            ctx.record(self.kind, "cluster", until_slot=self._burst_until)

    def on_launch(self, ctx: FaultContext, job: "SimJob",
                  task: "Task") -> None:
        if ctx.now >= self._burst_until:
            return
        extra = max(1, int(round(task.duration * (self.magnitude - 1.0))))
        task.duration += extra
        task.remaining += extra
        ctx.record(self.kind, task.task_id, job_id=job.job_id,
                   extra_slots=extra)

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "magnitude": self.magnitude,
                "width": self.width}


class SampleCorruptionInjector(FaultInjector):
    """Corrupt the runtime sample the scheduler observes.

    The task's ground truth is untouched — only ``observed_duration``
    (what the DE units ingest) is rescaled by a factor drawn uniformly
    from ``[low, high]``.  This is pure estimator poison: the cluster
    behaves identically, the planner's beliefs drift.
    """

    kind = "sample_corruption"

    def __init__(self, rate: float = 0.05, low: float = 0.2,
                 high: float = 4.0) -> None:
        super().__init__(rate)
        if not 0.0 < low <= high:
            raise ConfigurationError(
                f"need 0 < low <= high, got low={low}, high={high}")
        self.low = low
        self.high = high

    def on_complete(self, ctx: FaultContext, job: "SimJob",
                    task: "Task") -> None:
        if not self._fires(ctx):
            return
        factor = float(self.vary.uniform(self.low, self.high))
        task.observed_duration = max(1.0, task.duration * factor)
        ctx.record(self.kind, task.task_id, job_id=job.job_id,
                   factor=round(factor, 4),
                   observed=task.observed_duration)

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "low": self.low, "high": self.high}


class JobKillInjector(FaultInjector):
    """Kill one job's running attempts, forcing a task-level resubmit.

    Every slot, with probability ``rate * intensity``, one active job
    with running work (chosen uniformly) has every running attempt
    killed.  The simulator's retry machinery requeues each logical task,
    so the job restarts its in-flight work from scratch — the
    kill/resubmit cycle operators inflict on stuck jobs.
    """

    kind = "job_kill"

    def __init__(self, rate: float = 0.002) -> None:
        super().__init__(rate)

    def on_slot(self, ctx: FaultContext) -> None:
        if not self._fires(ctx):
            return
        candidates = [j for j in ctx.active_jobs if j.running_count > 0]
        if not candidates:
            return
        job = candidates[int(self.vary.integers(len(candidates)))]
        killed = 0
        for task in job.running_attempts():
            task.fail_after = task.executed + 1
            killed += 1
        ctx.record(self.kind, job.job_id, killed_attempts=killed)


class SolverBudgetInjector(FaultInjector):
    """Starve the planner: force the next solve(s) to fail.

    Every slot, with probability ``rate * intensity``, arms a forced
    solver failure on schedulers exposing ``inject_solver_fault(depth)``
    (the RUSH scheduler's degradation ladder).  ``depth`` controls how
    many rungs fail: 1 fails the primary solve, so the round runs on
    the last good plan; 2 also discards that plan — landing the
    scheduler on its greedy-EDF floor.  Any other depth is refused
    (:func:`~repro.core.degradation.check_fault_depth`).
    """

    kind = "solver_budget"

    def __init__(self, rate: float = 0.01, depth: int = 1) -> None:
        super().__init__(rate)
        self.depth = check_fault_depth(depth)

    def on_slot(self, ctx: FaultContext) -> None:
        if not self._fires(ctx):
            return
        if not ctx.scheduler.has_solver:
            return  # policy has no solver to sabotage
        ctx.scheduler.inject_solver_fault(self.depth)
        ctx.record(self.kind, "planner", depth=self.depth)

    def params(self) -> Dict[str, object]:
        return {"rate": self.rate, "depth": self.depth}


INJECTOR_REGISTRY: Dict[str, Type[FaultInjector]] = {
    cls.kind: cls
    for cls in (SpecFailureInjector, ContainerCrashInjector,
                StragglerInjector, DemandBurstInjector,
                SampleCorruptionInjector, JobKillInjector,
                SolverBudgetInjector)
}


def injector_from_spec(spec: Mapping[str, object]) -> FaultInjector:
    """Build one injector from its ``{"kind": ..., **params}`` mapping."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(
            f"injector spec must be a mapping with a 'kind', got {spec!r}")
    kind = spec["kind"]
    cls = INJECTOR_REGISTRY.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown injector kind {kind!r}; known: "
            + ", ".join(sorted(INJECTOR_REGISTRY)))
    params = {k: v for k, v in spec.items() if k != "kind"}
    try:
        return cls(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad parameters for injector {kind!r}: {exc}") from None
