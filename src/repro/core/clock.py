"""Clock and event-source protocols: the simulator/driver boundary.

The slotted simulator used to own time outright (``self.now += 1``),
which welded the RUSH core to batch simulation.  These two small
protocols invert that dependency so the *same* core — simulator,
schedulers, planner — can be driven by any loop:

:class:`Clock`
    Whoever owns time implements ``slot`` (the current discrete slot)
    and ``advance()`` (move to the next one).  :class:`SimulatedClock`
    is the slot counter the simulator defaults to; the asyncio
    real-time clock (:class:`repro.service.clock.RealTimeClock`) paces
    the same integer sequence against wall time.  Decisions only ever
    read the integer slot, so a run is bit-identical under any clock
    that yields the same slot sequence.

:class:`EventSource`
    External inputs — job submissions and cancellations — delivered at
    slot boundaries.  The simulator polls the source once per slot
    *before* admitting arrivals; a run with no source behaves exactly
    as before.  :class:`QueueEventSource` is the deterministic buffered
    implementation the service daemon (and snapshot replay) feed.

Both live in ``core`` because they are part of the deterministic
contract: nothing here may read a wall clock (RL002); real time enters
only through the sanctioned ``repro.service`` carve-out.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Dict, List, Protocol, Sequence, Tuple,
                    Union)

from repro import state as st

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.cluster.job import JobSpec

__all__ = [
    "Clock", "SimulatedClock", "SubmitEvent", "CancelEvent",
    "ClusterEvent", "EventSource", "QueueEventSource",
]


class Clock(Protocol):
    """Who owns time: a monotone integer slot sequence."""

    @property
    def slot(self) -> int:
        """The current discrete slot."""
        ...  # pragma: no cover - protocol signature

    def advance(self) -> int:
        """Move to the next slot and return it."""
        ...  # pragma: no cover - protocol signature


class SimulatedClock:
    """The plain slot counter — the simulator's default time source."""

    __slots__ = ("_slot",)

    def __init__(self, start: int = 0) -> None:
        self._slot = int(start)

    @property
    def slot(self) -> int:
        return self._slot

    def advance(self) -> int:
        self._slot += 1
        return self._slot


@dataclass(frozen=True)
class SubmitEvent:
    """A job submission delivered from outside the slot loop.

    ``spec.arrival`` must be at or after the slot the event is applied
    in; the simulator then admits the job at that arrival slot exactly
    as if it had been pre-registered before the run.
    """

    spec: "JobSpec"


@dataclass(frozen=True)
class CancelEvent:
    """A client-initiated cancellation of a submitted job.

    Applied leniently: cancelling a job that already completed (the
    request raced the finish) is a no-op, not an error.
    """

    job_id: str


ClusterEvent = Union[SubmitEvent, CancelEvent]


class EventSource(Protocol):
    """External inputs the simulator polls once per slot."""

    def poll(self, slot: int) -> Sequence[ClusterEvent]:
        """Drain the events due at or before ``slot``, in delivery order."""
        ...  # pragma: no cover - protocol signature


class QueueEventSource:
    """Deterministic buffered event source.

    Events pushed without a due slot fire at the next poll; events
    pushed with one are held until the clock reaches it.  Delivery
    order is total and reproducible: by (due slot, push sequence), so a
    journal replay that pushes the same events with the same due slots
    drains identically.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, ClusterEvent]] = []
        self._seq = 0

    def push(self, event: ClusterEvent, *, due: int = -1) -> None:
        """Enqueue ``event``; ``due`` < 0 means "next poll"."""
        heapq.heappush(self._heap, (due, self._seq, event))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap)

    def poll(self, slot: int) -> Sequence[ClusterEvent]:
        drained: List[ClusterEvent] = []
        while self._heap and self._heap[0][0] <= slot:
            drained.append(heapq.heappop(self._heap)[2])
        return drained

    def state_dict(self) -> Dict[str, Any]:
        """The queued events, in heap order, as JSON values."""
        from repro.workload.trace import spec_to_dict

        return {"seq": self._seq, "heap": [
            [due, seq, "submit", spec_to_dict(event.spec)]
            if isinstance(event, SubmitEvent)
            else [due, seq, "cancel", event.job_id]
            for due, seq, event in self._heap]}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back :meth:`state_dict`'s output on an empty queue."""
        from repro.workload.trace import spec_from_dict

        heap: List[Tuple[int, int, ClusterEvent]] = []
        for item in st.array(state["heap"]):
            due, seq, kind, payload = st.row(item, st.integer, st.integer,
                                             st.string, lambda v: v)
            if kind == "submit":
                event: ClusterEvent = SubmitEvent(
                    spec_from_dict(st.mapping(payload)))
            elif kind == "cancel":
                event = CancelEvent(st.string(payload))
            else:
                raise ValueError(f"unknown queued event kind {kind!r}")
            heap.append((due, seq, event))
        self._heap = heap
        self._seq = st.integer(state["seq"])
