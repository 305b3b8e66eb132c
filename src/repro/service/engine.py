"""The deterministic core of the scheduler service.

:class:`ServiceEngine` is the daemon with the I/O stripped away: it owns
a :class:`~repro.cluster.simulator.ClusterSimulator` driven through the
:class:`~repro.core.clock.Clock` / :class:`~repro.core.clock.EventSource`
protocols, validates and journals every external request, and advances
one slot per ``tick()``.  The asyncio daemon is a thin shell that
paces ``tick()`` against a real-time clock and translates HTTP into
these methods — which is why the whole service layer can be tested, and
its journal recovery proven bit-identical, without ever opening a
socket.

Determinism contract: the engine's visible behaviour (decision stream,
job outcomes) is a pure function of (config, journal).  Every external
input lands in the journal *with the slot it becomes due*, external
events only enter the simulator through the event source at slot
boundaries, and the scheduler stack below is the already-pinned
deterministic core.  The journal's anchor is the config plus
:meth:`ServiceEngine.state_dict`; recovery is :meth:`ServiceEngine.from_state`
plus a replay of the records after it.  See :mod:`repro.service.journal`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro import state as st
from repro.cluster.job import SimJob
from repro.cluster.metrics import RetiredJob, SimulationResult
from repro.cluster.simulator import ClusterSimulator
from repro.core.clock import (CancelEvent, Clock, QueueEventSource,
                              SubmitEvent)
from repro.core.degradation import check_fault_depth
from repro.errors import (BadRequestError, ConfigurationError, JobStateError,
                          ServiceError, UnknownJobError)
from repro.faults.plan import FaultPlan
from repro.schedulers import POLICIES, Scheduler
# ``canonical_digest`` is no longer called here, but the perf ledger's
# tracer (benchmarks/ledger/tracing.py) rebinds it on this module by
# name, so the name stays until that tracer wraps layers, not symbols.
from repro.service.protocol import canonical_digest  # noqa: F401
from repro.service.protocol import (RollingDigest, parse_submit,
                                    records_digest)
from repro.service.tenants import (TenantRegistry, TenantSpec,
                                   tenants_from_dicts)
from repro.workload.trace import spec_from_dict, spec_to_dict

__all__ = ["ServiceConfig", "ServiceEngine"]


@dataclass(frozen=True)
class ServiceConfig:
    """Frozen daemon configuration — everything replay needs, JSON-able.

    ``scheduler_options`` are keyword arguments for the policy builder
    (e.g. ``{"theta": 0.95, "delta": 0.8}`` for RUSH),
    limited to the keys :data:`repro.schedulers.POLICIES` lists for the
    policy.  The ``capacity`` policy takes none: its queues are the
    tenant shares.
    """

    capacity: int
    policy: str = "rush"
    seed: int = 0
    scheduler_options: Mapping[str, Any] = field(default_factory=dict)
    tenants: Tuple[TenantSpec, ...] = ()
    fault_spec: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown service policy {self.policy!r}; "
                f"known: {', '.join(sorted(POLICIES))}")
        if not isinstance(self.scheduler_options, Mapping):
            raise ConfigurationError(
                "scheduler_options must be a JSON object of keyword "
                f"options, got {type(self.scheduler_options).__name__}")
        accepted = POLICIES[self.policy][1]
        for key in self.scheduler_options:
            if key not in accepted:
                raise ConfigurationError(
                    f"unknown scheduler option {key!r} for policy "
                    f"{self.policy!r}; accepted: "
                    f"{', '.join(accepted) or '(none)'}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "seed": self.seed,
            "scheduler_options": dict(self.scheduler_options),
            "tenants": [t.to_dict() for t in self.tenants],
            "fault_spec": (dict(self.fault_spec)
                           if self.fault_spec is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ServiceConfig":
        try:
            return cls(
                capacity=int(data["capacity"]),
                policy=str(data.get("policy", "rush")),
                seed=int(data.get("seed", 0)),
                scheduler_options=dict(data.get("scheduler_options") or {}),
                tenants=tenants_from_dicts(data.get("tenants") or ()),
                fault_spec=data.get("fault_spec"))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"malformed service config: {exc}") from None


class ServiceEngine:
    """Submit/cancel/query/tick over the clock-driven simulator core.

    Every accepted event goes validate → commit → apply.  The request
    methods only validate and build the journal entry; :meth:`_commit`
    makes it durable, applies it and runs journal housekeeping; and
    :meth:`apply` — given nothing but the entry — is the only code that
    changes engine state, for live requests, anchor replay and WAL
    recovery alike.  Live ≡ replay holds by construction: the live
    engine acts on exactly what it journaled.
    """

    def __init__(self, config: ServiceConfig, *,
                 clock: Optional[Clock] = None) -> None:
        self.config = config
        self.registry = TenantRegistry(config.tenants)
        if config.policy == "capacity":
            self.scheduler: Scheduler = self.registry.capacity_scheduler()
        else:
            self.scheduler = POLICIES[config.policy][0](
                **config.scheduler_options)
        faults = (FaultPlan.from_spec(config.fault_spec)
                  if config.fault_spec is not None else None)
        self.events = QueueEventSource()
        self.sim = ClusterSimulator(
            config.capacity, self.scheduler, seed=config.seed,
            faults=faults, clock=clock, events=self.events,
            record_decisions=True)
        #: Optional write-ahead log (duck-typed: ``append``,
        #: ``note_applied``, ``close``; see :mod:`repro.service.journal`).
        self.wal: Optional[Any] = None
        #: The last journal-housekeeping failure, for ``/status``.
        self.housekeeping_failure: Optional[str] = None
        self._auto_seq = 0
        self._idempotency: Dict[str, str] = {}  # idempotency key -> job_id
        self._cancelling: set = set()  # cancels queued for the next step
        # How much of the simulator's append-only completed / cancelled
        # lists has been released from the tenant registry.
        self._released_completed = 0
        self._released_cancelled = 0
        # The decision stream folded so far.  ``sim.decisions`` is
        # append-only, so each read folds only what was granted since.
        self._decisions_digest = RollingDigest()

    # -- commit & apply --------------------------------------------------

    def _commit(self, entry: Dict[str, Any]) -> None:
        """Make a validated entry durable, apply it, then housekeep.

        The error contract lives here.  The append is the only step
        that may refuse the event and it runs before :meth:`apply`, so
        an error means *not applied*.  Checkpoints, rotation and
        compaction run after the event took effect: a failure there is
        counted by the writer and kept for ``/status``, never returned
        — the caller gets the event's answer.
        """
        if self.wal is not None:
            self.wal.append(entry)
        self.apply(entry)
        if self.wal is not None:
            try:
                self.wal.note_applied(self)
            except ServiceError as exc:
                self.housekeeping_failure = str(exc)

    def apply(self, entry: Mapping[str, Any]) -> None:
        """THE state transition: act on one journal entry, unvalidated.

        The entry was validated when first accepted, and the live path,
        :func:`~repro.service.journal.recover_engine` (and the replay of
        an older, input-freezing anchor) all call this with the clock at
        the entry's ``due`` slot, so a replay reproduces the accepted
        sequence verbatim (specs carry their final ids and arrival
        slots).
        """
        kind = entry.get("kind")
        if kind == "tick":
            self.sim.step()  # drains every queued event, cancels included
            self._cancelling.clear()
            self._release_finished()
            return
        due = int(entry["due"])
        if kind == "submit":
            spec = spec_from_dict(entry["spec"])
            tenant = self.registry.admit(entry.get("tenant"), spec.job_id)
            obs.count("rush_service_jobs_submitted_total", 1, tenant)
            auto_seq = entry.get("auto_seq")
            if auto_seq is not None:
                self._auto_seq = max(self._auto_seq, int(auto_seq))
            key = entry.get("idempotency_key")
            if key is not None:
                self._idempotency[str(key)] = spec.job_id
            self.events.push(SubmitEvent(spec), due=due)
        elif kind == "cancel":
            job_id = str(entry["job_id"])
            obs.count("rush_service_jobs_cancelled_total", 1,
                      str(self.registry.tenant_of(job_id)))
            self._cancelling.add(job_id)
            self.events.push(CancelEvent(job_id), due=due)
        elif kind == "solver_fault":  # the scheduler checks the depth
            if not self.scheduler.has_solver:
                raise ServiceError(f"policy {self.config.policy!r} has no "
                                   "solver to sabotage")
            self.scheduler.inject_solver_fault(entry.get("depth"))
        else:
            raise ServiceError(f"unknown journal entry kind {kind!r}")

    def _release_finished(self) -> None:
        """Release the jobs that left the cluster during the last slot."""
        completed = self.sim.completed_since(self._released_completed)
        cancelled = self.sim.cancelled_since(self._released_cancelled)
        for job in completed + cancelled:
            self.registry.release(job.job_id)
        self._released_completed += len(completed)
        self._released_cancelled += len(cancelled)

    # -- time -----------------------------------------------------------

    @property
    def slot(self) -> int:
        """The next slot :meth:`tick` will process."""
        return self.sim.now

    @property
    def clock(self) -> Clock:
        """The clock driving the underlying simulator."""
        return self.sim.clock

    def tick(self, slots: int = 1) -> Dict[str, Any]:
        """Advance the cluster ``slots`` slots; returns the new status."""
        if slots < 1:
            raise BadRequestError(
                f"tick slots must be a positive integer, got {slots}")
        for _ in range(slots):
            self._commit({"kind": "tick", "due": self.slot})
        return self.cluster_status()

    # -- requests --------------------------------------------------------

    def submit(self, payload: object) -> Dict[str, Any]:
        """Validate and commit one submission; returns its status."""
        request = parse_submit(payload)
        key = request.idempotency_key
        if key is not None and key in self._idempotency:
            # A retried submit after an ambiguous failure: the first
            # attempt was journaled and applied, so this one must not
            # double-admit.  Report the existing job.
            status = self.job_status(self._idempotency[key])
            status["deduplicated"] = True
            return status
        now = self.slot
        arrival = request.arrival if request.arrival is not None else now
        if arrival < now:
            raise BadRequestError(
                f"arrival slot {arrival} is in the past (clock at {now})")
        job_id = request.job_id
        auto_seq: Optional[int] = None
        if job_id is None:
            tenant_hint = (request.tenant if request.tenant is not None
                           else self.registry.default_tenant)
            auto_seq = self._auto_seq + 1
            job_id = f"{tenant_hint}-{auto_seq}"
        if self.registry.tenant_of(job_id) is not None:
            raise JobStateError(f"job id {job_id!r} was already submitted")
        spec = request.build_spec(job_id, arrival)
        tenant = self.registry.admissible(request.tenant)
        entry: Dict[str, Any] = {"kind": "submit", "due": now,
                                 "tenant": tenant,
                                 "spec": spec_to_dict(spec)}
        if auto_seq is not None:
            entry["auto_seq"] = auto_seq
        if key is not None:
            entry["idempotency_key"] = key
        # Everything above only validated, so a refused commit leaves
        # the engine (tenant registry included) exactly as it found it.
        self._commit(entry)
        return self.job_status(job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Queue a cancellation for the next slot boundary."""
        tenant = self.registry.tenant_of(job_id)
        if tenant is None:
            raise UnknownJobError(job_id)
        state = self._job_state(job_id)
        if state in ("completed", "cancelled"):
            raise JobStateError(
                f"cannot cancel job {job_id!r}: already {state}")
        if state != "cancelling":
            self._commit({"kind": "cancel", "due": self.slot,
                          "job_id": job_id})
        return self.job_status(job_id)

    def inject_solver_fault(self, depth: int = 1) -> Dict[str, Any]:
        """Arm a forced solver failure (the daemon-side chaos hook)."""
        try:
            check_fault_depth(depth)
        except ConfigurationError as exc:
            raise BadRequestError(str(exc)) from None
        if not self.scheduler.has_solver:
            raise BadRequestError(
                f"policy {self.config.policy!r} has no solver to sabotage")
        self._commit({"kind": "solver_fault", "due": self.slot,
                      "depth": depth})
        return {"armed": True, "depth": depth, "slot": self.slot}

    # -- queries ---------------------------------------------------------

    def _find(self, job_id: str
              ) -> Tuple[Optional[SimJob], Optional[RetiredJob]]:
        """The live job ``job_id`` or the row it retired to (or neither,
        while its submit waits for the next tick)."""
        retired = self.sim.retired(job_id)
        if retired is not None or not self.sim.has_job(job_id):
            return None, retired
        return self.sim.job(job_id), None

    def _job_state(self, job_id: str) -> str:
        return self._state_of(job_id, *self._find(job_id))

    def _state_of(self, job_id: str, job: Optional[SimJob],
                  retired: Optional[RetiredJob]) -> str:
        if retired is not None:
            return "cancelled" if retired.completion is None else "completed"
        if job is not None and job.is_complete:  # only inside a step
            return "completed"
        if job_id in self._cancelling:
            return "cancelling"
        if job is None:
            return "accepted"  # journaled; enters the cluster next tick
        # Every step admits the registered jobs whose arrival slot it
        # processed, so between ticks "arrived" is a slot comparison.
        if job.spec.arrival < self.slot:
            return "running" if job.running_count > 0 else "pending"
        return "queued"  # registered, waiting for its arrival slot

    def job_status(self, job_id: str) -> Dict[str, Any]:
        """Everything a client may ask about one job, degradation included."""
        return self._job_status(job_id, self._degradation_status())

    def _job_status(self, job_id: str,
                    degradation: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self.registry.tenant_of(job_id)
        if tenant is None:
            raise UnknownJobError(job_id)
        job, retired = self._find(job_id)
        status: Dict[str, Any] = {
            "job_id": job_id,
            "tenant": tenant,
            "state": self._state_of(job_id, job, retired),
            "slot": self.slot,
        }
        # A live job answers what it would retire to as it stands, so
        # its answer and its row's cannot drift apart.
        row = RetiredJob.of(job) if job is not None else retired
        if row is not None:
            status.update({
                "arrival": row.arrival,
                "tasks": row.tasks,
                "pending_tasks": row.pending_tasks,
                "running_tasks": 0 if job is None else job.running_count,
                "completed_tasks": row.completed_tasks,
                "failed_attempts": row.failed_attempts,
                "budget": row.budget if math.isfinite(row.budget) else None,
                "sensitivity": row.sensitivity,
                "completion": row.completion,
            })
            if row.completion is not None:
                status["runtime"] = float(row.completion - row.arrival)
                status["utility_value"] = row.utility_value
        status["degradation"] = degradation
        return status

    def _degradation_status(self) -> Dict[str, Any]:
        """The ladder's health: rung counts plus the most recent fallback.

        This is how a planner starved of its budget surfaces to clients
        — a degraded-but-served answer in the payload, never a 500.
        """
        counts = self.scheduler.degradation_counts
        event = self.sim.fault_log.last_degradation
        return {"fallbacks": counts,
                "last_fallback": (None if event is None
                                  else event.kind.split(":", 1)[1]),
                "last_fallback_slot": None if event is None else event.slot}

    def list_jobs(self) -> List[Dict[str, Any]]:
        degradation = self._degradation_status()
        return [self._job_status(job_id, degradation)
                for job_id in self.registry.job_ids()]

    def cluster_status(self) -> Dict[str, Any]:
        """The per-slot cluster summary (also the /stream payload)."""
        active = self.sim.active_jobs
        return {
            "slot": self.slot,
            "capacity": self.sim.capacity,
            "free_containers": self.sim.free_container_count,
            "active_jobs": len(active),
            "queued_tasks": sum(j.pending_count for j in active),
            "running_tasks": sum(j.running_count for j in active),
            "completed_jobs": self.sim.completed_count,
            "cancelled_jobs": self.sim.cancelled_count,
            "scheduling_decisions": self.sim.scheduling_decisions,
            "task_failures": self.sim.task_failures,
            "tenants": self.registry.status(),
            "degradation": self._degradation_status(),
        }

    @property
    def idle(self) -> bool:
        """No queued events and no pending or active work."""
        return (len(self.events) == 0 and not self.sim.active_jobs
                and not self.sim._pending_arrivals)

    # -- results & digests ----------------------------------------------

    def result(self) -> SimulationResult:
        """The run-so-far as a standard :class:`SimulationResult`."""
        return self.sim._result()

    def decision_stream(self) -> List[Tuple[int, str, str]]:
        """The recorded grant stream (slot, kind, job_id)."""
        return list(self.sim.decisions)

    def decisions_digest(self) -> str:
        """SHA-256 of the canonical JSON of the decision stream.

        The value is ``canonical_digest`` of the stream as a list of
        ``[slot, kind, job_id]`` rows — the journal checkpoints, the
        anchor and ``/digest`` all carry it.  It is kept as a
        :class:`~repro.service.protocol.RollingDigest`: a call folds
        only the decisions granted since the previous call, so it costs
        O(new decisions), not O(history).  That relies on
        ``ClusterSimulator.decisions`` being append-only.
        """
        digest = self._decisions_digest
        digest.extend(self.sim.decisions[digest.items:])
        return digest.hexdigest()

    def records_digest(self) -> str:
        """Digest of completed-job outcomes (simulator-path comparable)."""
        return records_digest(self.result().records)

    # -- state -----------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Everything the next event depends on, as JSON values.

        The simulator (with its scheduler and fault plan), the tenant
        registry, the queued events and the engine's own fields: the
        auto-id counter, the idempotency keys in admission order, the
        queued cancels and how far the registry has been released.
        With the config, :meth:`from_state` rebuilds the engine.
        """
        return {
            "sim": self.sim.state_dict(),
            "registry": self.registry.state_dict(),
            "events": self.events.state_dict(),
            "auto_seq": self._auto_seq,
            "idempotency": [[key, job_id]
                            for key, job_id in self._idempotency.items()],
            "cancelling": sorted(self._cancelling),
            "released": [self._released_completed, self._released_cancelled],
        }

    @classmethod
    def from_state(cls, config: ServiceConfig, state: Mapping[str, Any], *,
                   clock: Optional[Clock] = None) -> "ServiceEngine":
        """The engine :meth:`state_dict` described, under ``config``.

        A malformed state raises ``TypeError``, ``ValueError``,
        ``KeyError``, ``IndexError`` or a :class:`~repro.errors.ReproError`
        before anything is returned; the half-built engine is dropped.
        """
        engine = cls(config, clock=clock)
        engine.sim.load_state(st.mapping(state["sim"]))
        engine.registry.load_state(st.mapping(state["registry"]))
        engine.events.load_state(st.mapping(state["events"]))
        engine._auto_seq = st.integer(state["auto_seq"])
        engine._idempotency = {key: job_id for key, job_id in (
            st.row(pair, st.string, st.string)
            for pair in st.array(state["idempotency"]))}
        engine._cancelling = {st.string(job_id)
                              for job_id in st.array(state["cancelling"])}
        engine._released_completed, engine._released_cancelled = st.row(
            state["released"], st.integer, st.integer)
        return engine

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self.wal is not None:
            self.wal.close()  # final flush+fsync before the engine goes
            self.wal = None
