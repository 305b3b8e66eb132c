"""The fault-injection protocol: injectors, the event log, the context.

RUSH's claim is robustness to *uncertain completion-times*, so the
reproduction needs a way to manufacture that uncertainty on demand: tasks
that crash, containers that vanish, samples that lie, demand that bursts
in correlated waves, and a planner whose solve fails.  This
module defines the pluggable protocol the cluster simulator drives; the
concrete injectors live in :mod:`repro.faults.injectors` and are composed
into a :class:`repro.faults.plan.FaultPlan`.

An injector is a small object with three optional hooks:

``on_slot(ctx)``
    Called once per slot, after arrivals are admitted and before any
    scheduling event fires.  The place for cluster-level faults (crashes,
    revocations, demand bursts, job kills, solver sabotage).
``on_launch(ctx, job, task)``
    Called when a task is about to be placed on a container — the
    injection point the old hard-coded ``_maybe_inject_failure`` used.
``on_complete(ctx, job, task)``
    Called when a task attempt completes, before the scheduler observes
    its runtime sample — the place to corrupt the DE unit's feed.

Determinism contract: every injector draws randomness from exactly two
generators handed to it by the plan — a *decision* stream consuming one
draw per decision point regardless of outcome, and a *variation* stream
for fault magnitudes.  Keeping the decision stream's consumption
independent of the fault *intensity* gives monotone coupling: raising the
intensity under a fixed seed fires a superset of the fault events, which
is what makes degradation curves comparable across intensities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional

import numpy as np

from repro import obs
from repro import state as st

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.container import Container
    from repro.cluster.job import SimJob
    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.task import Task
    from repro.schedulers.base import Scheduler

__all__ = ["FaultEvent", "FaultLog", "FaultContext", "FaultInjector"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (or degradation fallback), for the record.

    ``slot`` is the simulator clock when the fault fired, ``kind`` the
    injector's registry name (or a ``degradation:*`` tag), ``target`` the
    affected entity (task id, job id, container id, or ``planner``) and
    ``detail`` a small JSON-compatible mapping of fault parameters.
    """

    slot: int
    kind: str
    target: str
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {"slot": self.slot, "kind": self.kind, "target": self.target,
                "detail": dict(self.detail)}


class FaultLog:
    """Append-only record of every fault injected during one run.

    Shared between the fault plan (injections) and the scheduler's
    degradation ladder (fallbacks), so one stream tells the whole story
    of a chaotic run.  Exposed on :class:`SimulationResult` as
    ``fault_events``.
    """

    def __init__(self) -> None:
        self._events: List[FaultEvent] = []
        #: The most recent ``degradation:*`` record — what a status read
        #: reports, kept here so it never scans the log for it.
        self.last_degradation: Optional[FaultEvent] = None

    def record(self, slot: int, kind: str, target: str,
               **detail: object) -> FaultEvent:
        event = FaultEvent(slot=slot, kind=kind, target=target, detail=detail)
        self._events.append(event)
        if kind.startswith("degradation:"):
            self.last_degradation = event
        obs.count("rush_fault_injections_total", 1, kind)
        return event

    @property
    def events(self) -> List[FaultEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self._events)

    def count(self, kind: Optional[str] = None) -> int:
        """Events recorded so far, optionally restricted to one kind."""
        if kind is None:
            return len(self._events)
        return sum(1 for e in self._events if e.kind == kind)

    def counts_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    def to_dicts(self) -> List[Dict[str, object]]:
        return [e.to_dict() for e in self._events]

    def load_state(self, events: List[Any]) -> None:
        """Become the log whose :meth:`to_dicts` is ``events``."""
        self._events = [FaultEvent(slot=st.integer(event["slot"]),
                                   kind=st.string(event["kind"]),
                                   target=st.string(event["target"]),
                                   detail=st.mapping(event["detail"]))
                        for event in map(st.mapping, st.array(events))]
        self.last_degradation = next(
            (event for event in reversed(self._events)
             if event.kind.startswith("degradation:")), None)


class FaultContext:
    """What an injector may see and touch during one hook call.

    A thin view over the simulator: the clock, the intensity dial, the
    container/job state and the log.  Injectors mutate *tasks* (their
    failure points, remaining work, observed samples) and *containers*
    (revocations) directly — the simulator's own bookkeeping picks the
    changes up on the next advance, so injectors cannot corrupt counters.
    """

    __slots__ = ("sim", "log", "intensity")

    def __init__(self, sim: "ClusterSimulator", log: FaultLog,
                 intensity: float) -> None:
        self.sim = sim
        self.log = log
        self.intensity = intensity

    @property
    def now(self) -> int:
        return self.sim.now

    @property
    def capacity(self) -> int:
        return self.sim.capacity

    @property
    def active_jobs(self) -> List["SimJob"]:
        return self.sim.active_jobs

    @property
    def containers(self) -> List["Container"]:
        return self.sim.containers

    @property
    def scheduler(self) -> "Scheduler":
        return self.sim.scheduler

    def record(self, kind: str, target: str, **detail: object) -> FaultEvent:
        """Log one injected fault at the current slot."""
        return self.log.record(self.now, kind, target, **detail)


class FaultInjector:
    """Base class for fault injectors.

    Subclasses override any subset of the three hooks, declare a registry
    ``kind`` and implement ``params()`` returning their JSON-compatible
    configuration (used by :meth:`FaultPlan.to_spec` round-trips).

    ``rate`` is the per-decision-point probability at intensity 1.0; the
    effective probability is ``min(rate * intensity, 1.0)``.
    """

    #: Registry name; also the ``kind`` recorded on every event.
    kind: str = "fault"

    def __init__(self, rate: float = 0.0) -> None:
        from repro.errors import ConfigurationError

        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"{type(self).__name__}: rate must be in [0, 1], got {rate}")
        self.rate = rate
        self._decide: Optional[np.random.Generator] = None
        self._vary: Optional[np.random.Generator] = None

    # -- wiring (done by the plan) ----------------------------------------

    def bind_rng(self, decide: np.random.Generator,
                 vary: np.random.Generator) -> None:
        """Attach this injector's decision and variation streams."""
        self._decide = decide
        self._vary = vary

    def reset(self) -> None:
        """Drop per-run state (called when a plan is bound to a new sim)."""

    # -- state ---------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Both generators' states plus any per-run fields, as JSON
        values (a PCG64 state is a pair of Python ints, exact in JSON)."""
        # rushlint: disable=RL004 (the stream's state is read, not drawn)
        decide = self._decide
        assert decide is not None, "injector used before bind_rng()"
        return {"decide": decide.bit_generator.state,
                "vary": self.vary.bit_generator.state}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back :meth:`state_dict`'s output after ``bind_rng``."""
        # rushlint: disable=RL004 (the stream's state is set, not drawn)
        decide = self._decide
        assert decide is not None, "injector used before bind_rng()"
        decide.bit_generator.state = st.mapping(state["decide"])
        self.vary.bit_generator.state = st.mapping(state["vary"])

    # -- shared helpers ----------------------------------------------------

    def _fires(self, ctx: FaultContext, rate: Optional[float] = None) -> bool:
        """One decision draw; True when the fault fires.

        Consumes exactly one draw from the decision stream regardless of
        the outcome or the intensity — the monotone-coupling invariant.
        """
        assert self._decide is not None, "injector used before bind_rng()"
        p = self.rate if rate is None else rate
        return self._decide.random() < min(p * ctx.intensity, 1.0)

    @property
    def vary(self) -> np.random.Generator:
        assert self._vary is not None, "injector used before bind_rng()"
        return self._vary

    # -- hooks ----------------------------------------------------------------

    def on_slot(self, ctx: FaultContext) -> None:
        """Called once per slot before scheduling events fire."""

    def on_launch(self, ctx: FaultContext, job: "SimJob",
                  task: "Task") -> None:
        """Called when ``task`` is about to be placed on a container."""

    def on_complete(self, ctx: FaultContext, job: "SimJob",
                    task: "Task") -> None:
        """Called when ``task`` completed, before the scheduler sees it."""

    # -- serialization ----------------------------------------------------------

    def params(self) -> Dict[str, object]:
        """JSON-compatible constructor arguments (for spec round-trips)."""
        return {"rate": self.rate}
