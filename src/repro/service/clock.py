"""The real-time clock: wall time enters the system here, and only here.

Everything under ``repro`` outside this package is deterministic — a
pure function of (inputs, seed) with slot-indexed time, enforced by the
rushlint RL002 rule over the deterministic packages.  The
``service`` package is the sanctioned carve-out: a daemon must pace its
slots against real time and report calendar timestamps to operators.
:class:`RealTimeClock` is the single component that reads clocks —
monotonic time for slot pacing, ``time.time()`` for reporting — and it
still implements the same :class:`repro.core.clock.Clock` protocol the
simulated clock does, so the scheduling core underneath remains
bit-identical for a given slot sequence.  Nothing in ``core``,
``cluster``, ``schedulers`` or the service engine may import this
module's clocks back into a decision path; the lint carve-out test
(``tests/test_clock.py``) pins that the exemption does not leak.
"""

from __future__ import annotations

import asyncio
import time

__all__ = ["RealTimeClock"]


class RealTimeClock:
    """An asyncio-paced slot clock over the monotonic timeline.

    Implements the :class:`repro.core.clock.Clock` protocol (``slot``,
    ``advance``) exactly like :class:`~repro.core.clock.SimulatedClock`
    — ``advance()`` just increments the integer and never sleeps, so
    the simulator core cannot tell the clocks apart.  The *pacing*
    lives in :meth:`wait_for_next_slot`, which the daemon's slot loop
    awaits between ticks: each slot boundary sits ``slot_seconds``
    after the previous one on the monotonic timeline, without drift
    accumulation (boundaries are computed from the origin, not from
    "now + interval").

    After a journal recovery the engine fast-forwards ``slot`` far past
    real time; :meth:`rebase` re-anchors the origin so the loop resumes
    pacing from the present instead of spinning to catch up.
    """

    def __init__(self, slot_seconds: float, *, start: int = 0) -> None:
        if slot_seconds <= 0:
            raise ValueError(
                f"slot_seconds must be positive, got {slot_seconds}")
        self.slot_seconds = float(slot_seconds)
        self._start = int(start)
        self._slot = int(start)
        self._origin = time.monotonic()
        #: Wall-clock daemon start time (reporting only, never decisions).
        self.started_at = time.time()

    @property
    def slot(self) -> int:
        return self._slot

    def advance(self) -> int:
        self._slot += 1
        return self._slot

    def rebase(self) -> None:
        """Re-anchor pacing so the *next* boundary is one slot from now."""
        self._start = self._slot
        self._origin = time.monotonic()

    async def wait_for_next_slot(self) -> None:
        """Sleep until the next slot boundary on the monotonic timeline.

        Always awaits, even when the boundary is already past: a loop
        running behind schedule must still yield to the event loop each
        iteration, or catching up would starve every other handler.
        """
        boundary = (self._slot - self._start + 1) * self.slot_seconds
        delay = self._origin + boundary - time.monotonic()
        await asyncio.sleep(max(delay, 0.0))

    def wall_time(self) -> float:
        """The current wall-clock timestamp (status reporting only)."""
        return time.time()

    def uptime_seconds(self) -> float:
        """Monotonic seconds since the clock was created or rebased."""
        return time.monotonic() - self._origin
