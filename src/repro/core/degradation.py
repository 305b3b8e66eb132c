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
2. **cold_exact** — drop the presolved demands and re-solve from scratch.
   On the same snapshot it returns the primary's plan by construction;
   it catches corruption of the carried state and gives a failing solve
   a second, independent chance.
3. **last_good** — reuse the previous round's plan unchanged.  Slightly
   stale (its first-slot allocation still reflects the last snapshot)
   but safe: it was a feasible robust plan moments ago.
4. **greedy_edf** — no plan at all; the scheduler falls back to granting
   by earliest absolute deadline, the cheapest policy that still honours
   urgency.  The floor of the ladder — always succeeds.

Every fallback is counted here, tagged on the produced plan's
:class:`~repro.core.planner.PlanStats` and recorded in the simulator's
:class:`~repro.faults.base.FaultLog` (as ``degradation:<rung>`` events),
so a chaotic run's planning story is fully observable.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ConfigurationError, ReproError
from repro.core.planner import SchedulePlan

__all__ = ["DegradationPolicy", "DegradationOutcome", "LADDER",
           "check_fault_depth"]

#: The rungs, in the order they are attempted.
LADDER = ("primary", "cold_exact", "last_good", "greedy_edf")


def check_fault_depth(depth: object) -> int:
    """Validate an injected solver fault's depth and return it.

    The depth is how many rungs fail before one may serve: an ``int``
    (not a ``bool``) in ``[1, len(LADDER) - 1]`` — 1 fails the primary,
    the last value lands on the greedy-EDF floor, which cannot fail.
    """
    top = len(LADDER) - 1
    if not isinstance(depth, int) or isinstance(depth, bool) \
            or not 1 <= depth <= top:
        raise ConfigurationError(
            f"solver-fault depth must be an integer in [1, {top}], "
            f"got {depth!r}")
    return depth


def _note_fallback(rung: str, errors: List[str]) -> None:
    """Trace/count one degradation fallback (never called for primary)."""
    tracer = obs.get_tracer()
    if tracer.active:
        tracer.event("degradation.fallback", rung=rung,
                     failed_rungs=len(errors))
    obs.count("rush_degradation_fallbacks_total", 1, rung)


class DegradationOutcome:
    """What one degraded planning round produced.

    ``plan`` is None exactly when the ladder bottomed out at
    ``greedy_edf``.  ``rung`` names the rung that served the round and
    ``errors`` the stringified failures of the rungs above it.
    """

    __slots__ = ("plan", "rung", "errors")

    def __init__(self, plan: Optional[SchedulePlan], rung: str,
                 errors: List[str]) -> None:
        self.plan = plan
        self.rung = rung
        self.errors = errors

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

    def execute(self,
                attempts: Sequence[Tuple[str, Callable[[], SchedulePlan]]],
                last_good: Optional[SchedulePlan]) -> DegradationOutcome:
        """Run ``attempts`` in order; degrade to ``last_good`` then EDF.

        Each attempt callable either returns a plan or raises a
        :class:`~repro.errors.ReproError` (which includes
        ``InfeasiblePlanError`` and ``SolverBudgetError``); anything
        else is a genuine bug and propagates.  The first success wins.
        """
        errors: List[str] = []
        for rung, attempt in attempts:
            try:
                plan = attempt()
            except ReproError as exc:
                errors.append(f"{rung}: {exc}")
                continue
            if rung != "primary":
                self.counts[rung] = self.counts.get(rung, 0) + 1
                plan.stats.fallback = rung
                _note_fallback(rung, errors)
            return DegradationOutcome(plan, rung, errors)
        if last_good is not None:
            self.counts["last_good"] = self.counts.get("last_good", 0) + 1
            last_good.stats.fallback = "last_good"
            _note_fallback("last_good", errors)
            return DegradationOutcome(last_good, "last_good", errors)
        self.counts["greedy_edf"] = self.counts.get("greedy_edf", 0) + 1
        _note_fallback("greedy_edf", errors)
        return DegradationOutcome(None, "greedy_edf", errors)
