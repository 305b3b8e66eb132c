"""The slotted discrete-event cluster simulator.

This is the substrate substituting for the paper's YARN Hadoop cluster.
Time advances in fixed slots (the paper's discrete time model, e.g. one
second per slot).  Within a slot the simulator

1. admits newly arrived jobs,
2. fires *scheduling events* while containers are free and work is
   pending — each event asks the pluggable scheduler for one job and
   launches that job's next task, matching YARN's container-grant loop
   driven by the RUSH CA unit ("the CA unit is triggered whenever there is
   an empty container in the system"),
3. advances every running task by one slot, releasing containers whose
   tasks finished and forwarding the runtime samples to the scheduler
   (feeding the DE units).

Tasks hold their container continuously until completion — the continuity
constraint of Section III-C is structural here, not merely modeled.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.clock import (CancelEvent, Clock, ClusterEvent, EventSource,
                              SimulatedClock, SubmitEvent)
from repro.errors import SimulationError, SimulationTimeoutError
from repro.cluster.container import Container
from repro.cluster.job import JobSpec, SimJob
from repro.cluster.metrics import JobRecord, SimulationResult
from repro.faults.plan import FaultPlan
from repro.schedulers.base import Scheduler

__all__ = ["ClusterSimulator", "run_simulation"]


class ClusterSimulator:
    """A cluster of ``capacity`` homogeneous containers plus one scheduler.

    The simulator exposes the read API schedulers need (``now``,
    ``active_jobs``, per-job state) and owns every state transition, so a
    scheduler cannot corrupt the cluster even if buggy.

    Fault injection is pluggable: pass a
    :class:`~repro.faults.plan.FaultPlan` as ``faults`` to drive any
    combination of injectors; by default the plan contains only the
    legacy per-spec task-failure injector.  A plan without its own seed
    inherits ``seed``, so one ``--seed`` reproduces a faulty run
    end-to-end.  All injections (and any scheduler degradation
    fallbacks) land in :attr:`fault_log`.
    """

    def __init__(self, capacity: int, scheduler: Scheduler,
                 seed: int = 0, faults: Optional[FaultPlan] = None, *,
                 clock: Optional[Clock] = None,
                 events: Optional[EventSource] = None,
                 record_decisions: bool = False) -> None:
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.scheduler = scheduler
        self.containers = [Container(container_id=k) for k in range(capacity)]
        self._clock: Clock = clock if clock is not None else SimulatedClock()
        self._events = events
        self._record_decisions = record_decisions
        #: Grant stream of (slot, "grant", job_id) — recorded only when
        #: ``record_decisions`` is set (the service snapshot/restore
        #: equivalence contract pins this stream).  Append-only: only
        #: ``_fire_scheduling_events`` appends to it, and nothing edits
        #: or drops an entry — the service engine's rolling digest
        #: folds each decision once and relies on that.
        self.decisions: List[Tuple[int, str, str]] = []
        self._jobs: Dict[str, SimJob] = {}
        self._pending_arrivals: List[SimJob] = []
        self._active: List[SimJob] = []
        self._completed: List[SimJob] = []
        self._cancelled: Dict[str, SimJob] = {}  # by id, in cancel order
        self.faults = faults if faults is not None else FaultPlan.default()
        self.faults.bind(self, fallback_seed=seed)
        self.fault_log = self.faults.log
        self.timed_out = False
        self.busy_container_slots = 0
        self.scheduling_decisions = 0
        self.task_failures = 0
        scheduler.bind(self)

    # -- read API for schedulers -------------------------------------------

    @property
    def now(self) -> int:
        """The current slot, read from the driving :class:`Clock`."""
        return self._clock.slot

    @property
    def clock(self) -> Clock:
        """The driving clock (identity matters to external pacers)."""
        return self._clock

    @property
    def active_jobs(self) -> List[SimJob]:
        """Arrived, incomplete jobs (the scheduler's candidate set)."""
        return list(self._active)

    def job(self, job_id: str) -> SimJob:
        return self._jobs[job_id]

    @property
    def free_container_count(self) -> int:
        """Containers that could accept work right now (free, not revoked)."""
        return sum(1 for c in self.containers if c.is_available(self.now))

    # -- setup ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> None:
        """Register a job for arrival at ``spec.arrival``."""
        if spec.job_id in self._jobs:
            raise SimulationError(f"duplicate job id {spec.job_id!r}")
        if spec.arrival < self.now:
            raise SimulationError(
                f"job {spec.job_id!r} arrives at {spec.arrival} "
                f"but the clock is already at {self.now}")
        job = SimJob(spec)
        self._jobs[spec.job_id] = job
        self._pending_arrivals.append(job)
        self._pending_arrivals.sort(key=lambda j: (j.arrival, j.job_id))

    def cancel_job(self, job_id: str, *, missing_ok: bool = False) -> bool:
        """Withdraw a submitted job before it completes.

        Running attempts are aborted and their containers freed this
        slot; queued work is discarded; the scheduler is told through
        :meth:`~repro.schedulers.base.Scheduler.on_job_cancelled`.  A
        cancelled job never appears in the run's records.  With
        ``missing_ok`` an unknown, already-complete or already-cancelled
        target returns ``False`` instead of raising — the lenient mode
        event-sourced cancellations use, because a cancel request may
        race the job's completion.
        """
        job = self._jobs.get(job_id)
        if job is None:
            if missing_ok:
                return False
            raise SimulationError(f"cannot cancel unknown job {job_id!r}")
        if job in self._completed or job_id in self._cancelled:
            if missing_ok:
                return False
            state = "completed" if job in self._completed else "cancelled"
            raise SimulationError(
                f"cannot cancel job {job_id!r}: already {state}")
        for container in self.containers:
            task = container.task
            if task is not None and task.job_id == job_id:
                task.cancel()
                container.task = None
                job.note_cancelled()
        if job in self._active:
            self._active.remove(job)
        else:
            self._pending_arrivals = [
                j for j in self._pending_arrivals if j.job_id != job_id]
        self._cancelled[job_id] = job
        self.scheduler.on_job_cancelled(job)
        return True

    @property
    def cancelled_jobs(self) -> List[SimJob]:
        """Jobs withdrawn by :meth:`cancel_job`, in cancellation order."""
        return list(self._cancelled.values())

    def is_cancelled(self, job_id: str) -> bool:
        """Whether :meth:`cancel_job` has withdrawn this job."""
        return job_id in self._cancelled

    @property
    def completed_jobs(self) -> List[SimJob]:
        """Jobs that finished every logical task, in completion order."""
        return list(self._completed)

    def has_job(self, job_id: str) -> bool:
        """Whether a job with this id was ever submitted to the cluster."""
        return job_id in self._jobs

    # -- the slot loop --------------------------------------------------------

    def step(self) -> None:
        """Simulate one slot."""
        obs.get_tracer().set_slot(self.now)
        if self._events is not None:
            for event in self._events.poll(self.now):
                self._apply_event(event)
        self._admit_arrivals()
        self.faults.on_slot()
        self._fire_scheduling_events()
        busy_before = self.busy_container_slots
        completed = self._advance_tasks()
        self._observe_slot(self.busy_container_slots - busy_before, completed)
        self._clock.advance()

    def run(self, max_slots: int = 1_000_000, *,
            raise_on_timeout: bool = False) -> SimulationResult:
        """Run until every submitted job completes or ``max_slots`` elapse.

        A run that exhausts ``max_slots`` with jobs still pending or
        active is *truncated*, never silently complete: the returned
        result carries ``timed_out=True`` (and censored records for the
        unfinished jobs), or — with ``raise_on_timeout=True`` — a
        :class:`~repro.errors.SimulationTimeoutError` is raised instead.
        """
        while (self._pending_arrivals or self._active) and self.now < max_slots:
            self.step()
        self.timed_out = bool(self._pending_arrivals or self._active)
        if self.timed_out and raise_on_timeout:
            unfinished = len(self._pending_arrivals) + len(self._active)
            raise SimulationTimeoutError(
                f"simulation hit max_slots={max_slots} with {unfinished} "
                f"job(s) unfinished")
        return self._result()

    # -- internals -------------------------------------------------------------

    def _apply_event(self, event: ClusterEvent) -> None:
        if isinstance(event, SubmitEvent):
            self.submit(event.spec)
        elif isinstance(event, CancelEvent):
            # Lenient: the cancel may have raced the job's completion.
            self.cancel_job(event.job_id, missing_ok=True)
        else:  # defensive: an EventSource handed us something foreign
            raise SimulationError(f"unknown cluster event {event!r}")

    def _admit_arrivals(self) -> None:
        while self._pending_arrivals and self._pending_arrivals[0].arrival <= self.now:
            job = self._pending_arrivals.pop(0)
            self._active.append(job)
            self.scheduler.on_job_arrival(job)

    def _fire_scheduling_events(self) -> None:
        free = [c for c in self.containers if c.is_available(self.now)]
        while free and any(j.pending_count > 0 for j in self._active):
            job_id = self.scheduler.select_job()
            self.scheduling_decisions += 1
            if job_id is None:
                break  # the scheduler deliberately idles remaining containers
            job = self._jobs.get(job_id)
            if job is None or job not in self._active:
                raise SimulationError(
                    f"scheduler selected unknown or inactive job {job_id!r}")
            task = job.next_pending()
            if task is None:
                raise SimulationError(
                    f"scheduler selected job {job_id!r} with no pending tasks")
            if self._record_decisions:  # the one append (see __init__)
                self.decisions.append((self.now, "grant", job_id))
            self.faults.on_launch(job, task)
            container = free.pop()
            container.assign(task, self.now)
            job.note_launched()
            self.scheduler.on_task_launched(job, task)

    def _advance_tasks(self) -> int:
        from repro.cluster.task import TaskState

        completed_tasks = 0
        for container in self.containers:
            if not container.is_free:
                self.busy_container_slots += 1
            finished = container.advance(self.now)
            if finished is None:
                continue
            job = self._jobs[finished.job_id]
            if finished.state is TaskState.FAILED:
                self.task_failures += 1
                job.note_failed(finished)
                self.scheduler.on_task_failed(job, finished)
                continue
            job.note_completed(finished)
            completed_tasks += 1
            self.faults.on_complete(job, finished)
            self.scheduler.on_task_complete(job, finished)
            if job.is_complete:
                self._active.remove(job)
                self._completed.append(job)
                completion = job.completion_time
                obs.get_ledger().realize(
                    job.job_id,
                    self.now if completion is None else int(completion))
                self.scheduler.on_job_complete(job)
        return completed_tasks

    def _observe_slot(self, busy: int, completed_tasks: int) -> None:
        """Feed the per-slot series (no-op unless obs enabled)."""
        if not obs.get_metrics().active:
            return  # the queue depth is a walk over the active set
        obs.set_gauge("rush_sim_queue_depth",
                      sum(j.pending_count for j in self._active))
        obs.observe("rush_sim_utilization", busy / self.capacity)
        obs.count("rush_sim_tasks_completed_total", completed_tasks)

    def _result(self) -> SimulationResult:
        records = [
            JobRecord.from_spec(job.spec, job.completion_time, self.now)
            for job_id, job in self._jobs.items()
            if job_id not in self._cancelled
        ]
        records.sort(key=lambda r: (r.arrival, r.job_id))
        fallbacks = self.scheduler.degradation_counts
        registry = obs.get_metrics()
        return SimulationResult(
            metrics=registry.snapshot() if registry.active else None,
            scheduler_name=self.scheduler.name,
            capacity=self.capacity,
            slots_simulated=self.now,
            records=records,
            busy_container_slots=self.busy_container_slots,
            scheduling_decisions=self.scheduling_decisions,
            task_failures=self.task_failures,
            planner_seconds=self.scheduler.planner_seconds,
            timed_out=self.timed_out,
            fault_events=self.fault_log.events,
            fallbacks=fallbacks)


def run_simulation(specs: Sequence[JobSpec], capacity: int,
                   scheduler: Scheduler,
                   max_slots: int = 1_000_000,
                   seed: int = 0,
                   faults: Optional[FaultPlan] = None, *,
                   raise_on_timeout: bool = False) -> SimulationResult:
    """Convenience wrapper: submit ``specs`` and run to completion.

    ``seed`` seeds the fault streams; a ``faults`` plan without its own
    seed inherits it, so two calls with identical arguments produce
    identical :class:`SimulationResult`\\ s, injected faults included.
    """
    sim = ClusterSimulator(capacity, scheduler, seed=seed, faults=faults)
    for spec in specs:
        sim.submit(spec)
    return sim.run(max_slots=max_slots, raise_on_timeout=raise_on_timeout)
