"""The slotted discrete-event cluster simulator.

This is the substrate substituting for the paper's YARN Hadoop cluster.
Time advances in fixed slots (the paper's discrete time model, e.g. one
second per slot).  Within a slot the simulator

1. admits newly arrived jobs,
2. fires a *scheduling event* when a container is free — the pluggable
   scheduler allocates the free containers in one call and each granted
   job's next task launches in order, matching YARN's container grants
   driven by the RUSH CA unit ("the CA unit is triggered whenever there is
   an empty container in the system"),
3. advances every running task by one slot, releasing containers whose
   tasks finished and forwarding the runtime samples to the scheduler
   (feeding the DE units).

A job that completes or is cancelled is *retired*: the simulator drops its
:class:`~repro.cluster.job.SimJob` — spec, utility and every attempt —
and keeps one :class:`~repro.cluster.metrics.RetiredJob` outcome row, so
what a long run holds per finished job does not grow with its tasks.

Tasks hold their container continuously until completion — the continuity
constraint of Section III-C is structural here, not merely modeled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro import state as st
from repro.core.clock import (CancelEvent, Clock, ClusterEvent, EventSource,
                              SimulatedClock, SubmitEvent)
from repro.errors import SimulationError, SimulationTimeoutError
from repro.cluster.container import Container
from repro.cluster.job import JobSpec, SimJob
from repro.cluster.task import Task, TaskState
from repro.cluster.metrics import JobRecord, RetiredJob, SimulationResult
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
        #: Live jobs: waiting for their arrival slot or active.
        self._jobs: Dict[str, SimJob] = {}
        self._pending_arrivals: List[SimJob] = []
        self._active: List[SimJob] = []
        #: Every completed or cancelled job's row, by id.
        self._retired: Dict[str, RetiredJob] = {}
        self._completed: List[RetiredJob] = []  # in completion order
        self._cancelled: List[RetiredJob] = []  # in cancellation order
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
        """The live job ``job_id``; ``KeyError`` once it has retired."""
        return self._jobs[job_id]

    def retired(self, job_id: str) -> Optional[RetiredJob]:
        """The outcome row of a completed or cancelled job, else ``None``."""
        return self._retired.get(job_id)

    @property
    def free_container_count(self) -> int:
        """Containers that could accept work right now (free, not revoked)."""
        return sum(1 for c in self.containers if c.is_available(self.now))

    # -- setup ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> None:
        """Register a job for arrival at ``spec.arrival``."""
        if self.has_job(spec.job_id):
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
            retired = self._retired.get(job_id)
            if retired is None:
                raise SimulationError(f"cannot cancel unknown job {job_id!r}")
            state = "cancelled" if retired.completion is None else "completed"
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
        self._retire(job, self._cancelled)
        self.scheduler.on_job_cancelled(job)
        return True

    def _retire(self, job: SimJob, into: List[RetiredJob]) -> None:
        """Drop a finished job, keeping its outcome row in ``into``."""
        row = RetiredJob.of(job)
        del self._jobs[row.job_id]
        self._retired[row.job_id] = row
        into.append(row)

    @property
    def cancelled_jobs(self) -> List[RetiredJob]:
        """Jobs withdrawn by :meth:`cancel_job`, in cancellation order."""
        return list(self._cancelled)

    @property
    def cancelled_count(self) -> int:
        """``len(cancelled_jobs)``, without the copy."""
        return len(self._cancelled)

    def cancelled_since(self, start: int) -> List[RetiredJob]:
        """:attr:`cancelled_jobs` from index ``start`` on, without a copy
        of the rest."""
        return self._cancelled[start:]

    @property
    def completed_jobs(self) -> List[RetiredJob]:
        """Jobs that finished every logical task, in completion order."""
        return list(self._completed)

    @property
    def completed_count(self) -> int:
        """``len(completed_jobs)``, without the copy."""
        return len(self._completed)

    def completed_since(self, start: int) -> List[RetiredJob]:
        """:attr:`completed_jobs` from index ``start`` on, without a copy
        of the rest."""
        return self._completed[start:]

    def has_job(self, job_id: str) -> bool:
        """Whether a job with this id was ever submitted to the cluster."""
        return job_id in self._jobs or job_id in self._retired

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
        if not free:
            return
        # One allocation per event; each grant launches before the next.
        for container, job_id in zip(reversed(free),
                                     self.scheduler.allocate(len(free))):
            self.scheduling_decisions += 1
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
            container.assign(task, self.now)
            job.note_launched()
            self.scheduler.on_task_launched(job, task)

    def _advance_tasks(self) -> int:
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
                self._retire(job, self._completed)
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
        records = [row.record() for row in self._completed]
        records.extend(
            JobRecord.from_spec(job.spec, job.completion_time, self.now)
            for job in self._jobs.values())
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


    # -- state ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything the next slot depends on, as JSON values.

        Each live job is its spec plus :meth:`SimJob.state_dict`; a
        retired one is its flat :meth:`RetiredJob.to_row`, listed under
        ``completed`` or ``cancelled`` in that order.  A container names
        the attempt it runs by (job id, index in ``job.tasks``), so the
        restored container and job share one attempt object, as they
        did.  The bound scheduler's and fault plan's state ride along.
        :meth:`load_state` reads it back.
        """
        from repro.workload.trace import spec_to_dict

        def held(task: Optional[Task]) -> Optional[List[Any]]:
            if task is None:
                return None
            return [task.job_id, self._jobs[task.job_id].attempt_index(task)]

        return {
            "slot": self.now,
            "jobs": [[spec_to_dict(job.spec), job.state_dict()]
                     for job in self._jobs.values()],
            "pending_arrivals": [j.job_id for j in self._pending_arrivals],
            "active": [j.job_id for j in self._active],
            "completed": [row.to_row() for row in self._completed],
            "cancelled": [row.to_row() for row in self._cancelled],
            "containers": [[held(c.task), c.offline_until]
                           for c in self.containers],
            "decisions": [list(row) for row in self.decisions],
            "counters": [self.timed_out, self.busy_container_slots,
                         self.scheduling_decisions, self.task_failures],
            "scheduler": self.scheduler.state_dict(),
            "faults": self.faults.state_dict(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        """Become the simulator :meth:`state_dict` described.

        Call it on a fresh simulator built from the same configuration
        (capacity, scheduler and fault plan alike), before its first
        step; the clock is advanced to the recorded slot.  A malformed
        state raises ``TypeError``, ``ValueError`` or ``KeyError`` —
        a container naming an attempt that is not running, a running
        attempt that no container or two containers hold, or a retired
        job listed twice or also live, say — and leaves this simulator
        unusable, so build another.

        A state written before jobs retired lists every job under
        ``jobs`` and names the finished ones under ``completed`` and
        ``cancelled``; each named job is retired as it is read.
        """
        from repro.workload.trace import spec_from_dict

        if self._jobs or self.now or self.decisions:
            raise SimulationError("load_state needs a fresh simulator")
        slot = st.integer(state["slot"])
        while self._clock.slot < slot:
            self._clock.advance()
        if self._clock.slot != slot:
            raise ValueError(f"the clock is at slot {self._clock.slot}, "
                             f"past the state's {slot}")
        jobs = self._jobs
        for item in st.array(state["jobs"]):
            spec_dict, job_state = st.row(item, st.mapping, st.mapping)
            spec = spec_from_dict(spec_dict)
            if spec.job_id in jobs:
                raise ValueError(f"job {spec.job_id!r} is listed twice")
            jobs[spec.job_id] = SimJob.from_state(spec, job_state)

        def listed(key: str) -> List[SimJob]:
            return [jobs[st.string(job_id)]
                    for job_id in st.array(state[key])]

        def retired(key: str, completed: bool) -> List[RetiredJob]:
            rows = []
            for item in st.array(state[key]):
                row = (RetiredJob.of(jobs.pop(item)) if isinstance(item, str)
                       else RetiredJob.from_row(item))
                if row.job_id in self._retired:
                    raise ValueError(f"job {row.job_id!r} is retired twice")
                if row.job_id in jobs:
                    raise ValueError(
                        f"retired job {row.job_id!r} is also live")
                if completed != (row.completion is not None) \
                        or completed != (row.utility_value is not None):
                    raise ValueError(
                        f"{key} job {row.job_id!r} has "
                        + ("no completion slot" if completed
                           else "a completion record"))
                self._retired[row.job_id] = row
                rows.append(row)
            return rows

        self._completed = retired("completed", True)
        self._cancelled = retired("cancelled", False)
        self._pending_arrivals = listed("pending_arrivals")
        self._active = listed("active")
        live = [j.job_id for j in self._pending_arrivals + self._active]
        if len(live) != len(jobs) or set(live) != jobs.keys():
            raise ValueError("the live jobs are not exactly the pending "
                             "and the active ones")
        containers = st.array(state["containers"])
        if len(containers) != self.capacity:
            raise ValueError(f"{len(containers)} containers for capacity "
                             f"{self.capacity}")
        held_by: Dict[int, int] = {}
        for container, item in zip(self.containers, containers):
            held, container.offline_until = st.row(
                item, st.optional(st.array), st.integer)
            if held is None:
                continue
            job_id, index = st.row(held, st.string, st.integer)
            job = jobs.get(job_id)
            tasks = [] if job is None else job.tasks
            if not 0 <= index < len(tasks) \
                    or tasks[index].state is not TaskState.RUNNING:
                raise ValueError(
                    f"container {container.container_id} runs attempt "
                    f"{index} of job {job_id!r}, which is not running")
            if id(tasks[index]) in held_by:
                raise ValueError(
                    f"containers {held_by[id(tasks[index])]} and "
                    f"{container.container_id} both run attempt {index} "
                    f"of job {job_id!r}")
            held_by[id(tasks[index])] = container.container_id
            container.task = tasks[index]
        # Every running attempt is held by exactly one container: one that
        # none holds would never advance, and its job never complete.
        for job in jobs.values():
            running = [index for index, task in enumerate(job.tasks)
                       if task.state is TaskState.RUNNING]
            if len(running) != job.running_count:
                raise ValueError(
                    f"job {job.job_id!r} counts {job.running_count} running "
                    f"attempts but has {len(running)}")
            for index in running:
                if id(job.tasks[index]) not in held_by:
                    raise ValueError(
                        f"attempt {index} of job {job.job_id!r} is running "
                        "in no container")
        self.decisions = [(slot, kind, job_id) for slot, kind, job_id in (
            st.row(row, st.integer, st.name, st.name)
            for row in st.array(state["decisions"]))]
        (self.timed_out, self.busy_container_slots, self.scheduling_decisions,
         self.task_failures) = st.row(state["counters"], st.boolean,
                                      st.integer, st.integer, st.integer)
        self.scheduler.load_state(st.mapping(state["scheduler"]))
        self.faults.load_state(st.mapping(state["faults"]))


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
