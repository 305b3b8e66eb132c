"""Graceful planner degradation: the fallback ladder.

A production scheduler cannot afford an unhandled solver exception: a
scheduling event fires every time a container frees, and a planner that
crashes stalls the whole cluster.  When a planning round fails — an
:class:`~repro.errors.InfeasiblePlanError` or an injected solver fault
(:class:`~repro.errors.SolverBudgetError`) — the RUSH scheduler walks
this ladder in :meth:`~repro.schedulers.rush.RushScheduler._current_plan`.
Nothing on the ladder reads the wall clock, so which rung serves a round
is a function of the snapshot and the journaled faults alone:

1. **primary** — the planner's solve: robust demands through the
   content-addressed WCDE cache, the onion solved cold.  The exact
   answer; the only rung used in a healthy run.
2. **last_good** — reuse the previous round's plan unchanged.  Slightly
   stale (its first-slot allocation still reflects the last snapshot)
   but safe: it was a feasible robust plan moments ago.
3. **greedy_edf** — no plan at all; the scheduler falls back to granting
   by earliest absolute deadline, the cheapest policy that still honours
   urgency.  The floor of the ladder — always succeeds.

There is no second solve: a plan is a pure function of its snapshot, so
re-solving the snapshot the primary just failed on could only fail
again or return the same plan.

Every fallback is counted by the scheduler, tagged on the reused plan's
:class:`~repro.core.planner.PlanStats` and recorded in the simulator's
:class:`~repro.faults.base.FaultLog` (as ``degradation:<rung>`` events),
so a chaotic run's planning story is fully observable.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["LADDER", "check_fault_depth"]

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
