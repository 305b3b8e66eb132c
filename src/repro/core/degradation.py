"""Graceful planner degradation: the fallback ladder.

A production scheduler cannot afford an unhandled solver exception or an
unbounded solve: a scheduling event fires every time a container frees,
and a planner that stalls or crashes stalls the whole cluster.  The
:class:`DegradationPolicy` encodes the ladder the RUSH scheduler walks
when its planning round fails or exceeds its time budget:

1. **primary** — the incremental solve: clean jobs reuse their presolved
   robust demand, the onion is solved cold (a plain cold solve when
   incrementality is off).  The exact answer; the only rung used in a
   healthy run.
2. **cold_exact** — drop the presolved demands and re-solve from scratch.
   On the same snapshot it returns the primary's plan by construction;
   it catches corruption of the carried state and gives a failing solve
   a second, independent chance within a fresh budget.
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

__all__ = ["DegradationPolicy", "DegradationOutcome", "LADDER"]

#: The rungs, in the order they are attempted.
LADDER = ("primary", "cold_exact", "last_good", "greedy_edf")

#: The cold re-solve's time budget, as a multiple of the primary's.
_COLD_BUDGET_MULTIPLE = 2.0


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
    """Catch solver failures and walk the fallback ladder.

    Parameters
    ----------
    time_budget:
        Wall-clock seconds allowed per *primary* planning attempt
        (cooperatively enforced inside the solver).  ``None`` disables
        budget enforcement — failures are still caught.  The cold
        re-solve gets twice this (a genuine retry deserves more room
        than the attempt that just timed out).
    """

    def __init__(self, *, time_budget: Optional[float] = None) -> None:
        if time_budget is not None and time_budget <= 0.0:
            raise ConfigurationError(
                f"time_budget must be positive, got {time_budget}")
        self.time_budget = time_budget
        #: Fallback-rung usage counts over this policy's lifetime
        #: ("primary" is never counted — it is not a fallback).
        self.counts: Dict[str, int] = {}

    @property
    def cold_time_budget(self) -> Optional[float]:
        if self.time_budget is None:
            return None
        return self.time_budget * _COLD_BUDGET_MULTIPLE

    @property
    def total_fallbacks(self) -> int:
        return sum(self.counts.values())

    def execute(self,
                attempts: Sequence[Tuple[str, Callable[[], SchedulePlan]]],
                last_good: Optional[SchedulePlan]) -> DegradationOutcome:
        """Run ``attempts`` in order; degrade to ``last_good`` then EDF.

        Each attempt callable either returns a plan or raises a
        :class:`~repro.errors.ReproError` (which includes
        ``SolverBudgetError``); anything else is a genuine bug and
        propagates.  The first success wins.
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
