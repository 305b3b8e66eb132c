"""Graceful planner degradation: the fallback ladder.

A production scheduler cannot afford an unhandled solver exception: a
scheduling event fires every time a container frees, and a planner that
crashes stalls the whole cluster.  The :class:`DegradationPolicy` encodes
the ladder the RUSH scheduler walks when its planning round fails — an
:class:`~repro.errors.InfeasiblePlanError` or an injected solver fault
(:class:`~repro.errors.SolverBudgetError`).  Nothing on the ladder reads
the wall clock, so which rung serves a round is a function of the
snapshot and the journaled faults alone:

1. **primary** — the incremental solve: clean jobs reuse their presolved
   robust demand, the onion is solved cold (a plain cold solve when
   incrementality is off).  The exact answer; the only rung used in a
   healthy run.
2. **last_good** — reuse the previous round's plan unchanged.  Slightly
   stale (its first-slot allocation still reflects the last snapshot)
   but safe: it was a feasible robust plan moments ago.
3. **greedy_edf** — no plan at all; the scheduler falls back to granting
   by earliest absolute deadline, the cheapest policy that still honours
   urgency.  The floor of the ladder — always succeeds.

There is no second solve: a plan is a pure function of its snapshot, so
re-solving the snapshot the primary just failed on could only fail
again or return the same plan.

Every fallback is counted here, tagged on the produced plan's
:class:`~repro.core.planner.PlanStats` and recorded in the simulator's
:class:`~repro.faults.base.FaultLog` (as ``degradation:<rung>`` events),
so a chaotic run's planning story is fully observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.errors import ConfigurationError, ReproError
from repro.core.planner import SchedulePlan

__all__ = ["DegradationPolicy", "DegradationOutcome", "LADDER",
           "check_fault_depth"]

#: The rungs, in the order they are attempted.
LADDER = ("primary", "last_good", "greedy_edf")


def check_fault_depth(depth: object) -> int:
    """Validate an injected solver fault's depth and return it.

    The depth is how many rungs fail before one may serve: an ``int``
    (not a ``bool``) in ``[1, len(LADDER) - 1]`` — 1 fails the primary,
    so ``last_good`` serves; 2 also drops that plan, landing on the
    greedy-EDF floor, which cannot fail.
    """
    top = len(LADDER) - 1
    if not isinstance(depth, int) or isinstance(depth, bool) \
            or not 1 <= depth <= top:
        raise ConfigurationError(
            f"solver-fault depth must be an integer in [1, {top}], "
            f"got {depth!r}")
    return depth


@dataclass
class DegradationOutcome:
    """What one degraded planning round produced.

    ``plan`` is None exactly when the ladder bottomed out at
    ``greedy_edf``.  ``rung`` names the rung that served the round and
    ``errors`` the primary's stringified failure, if it failed.
    """

    plan: Optional[SchedulePlan]
    rung: str
    errors: List[str]

    @property
    def degraded(self) -> bool:
        return self.rung != "primary"


class DegradationPolicy:
    """Catch solver failures and walk the fallback ladder."""

    def __init__(self) -> None:
        #: Fallback-rung usage counts over this policy's lifetime
        #: ("primary" is never counted — it is not a fallback).
        self.counts: Dict[str, int] = {}

    @property
    def total_fallbacks(self) -> int:
        return sum(self.counts.values())

    def execute(self, primary: Callable[[], SchedulePlan],
                last_good: Optional[SchedulePlan]) -> DegradationOutcome:
        """Run ``primary``; on failure serve ``last_good``, else EDF.

        ``primary`` either returns a plan or raises a
        :class:`~repro.errors.ReproError` (which includes
        ``InfeasiblePlanError`` and ``SolverBudgetError``); anything
        else is a genuine bug and propagates.
        """
        try:
            return DegradationOutcome(primary(), "primary", [])
        except ReproError as exc:
            errors = [f"primary: {exc}"]
        rung = "greedy_edf" if last_good is None else "last_good"
        if last_good is not None:
            last_good.stats.fallback = rung
        self.counts[rung] = self.counts.get(rung, 0) + 1
        obs.get_tracer().event("degradation.fallback", rung=rung)
        obs.count("rush_degradation_fallbacks_total", 1, rung)
        return DegradationOutcome(last_good, rung, errors)
