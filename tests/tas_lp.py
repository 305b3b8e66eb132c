"""Linear-programming baseline for the TAS problem.

Section III-B notes that TAS can be solved with linear programming (the
approach of the authors' earlier CORA scheduler) but that the number of
decision variables — one ``x_{i,t}`` per job per slot — makes the LP slow
as instances grow, which motivates onion peeling.  This module implements
that baseline so the claim is checkable:

* :func:`lp_feasible` decides, via an LP feasibility program over
  ``x_{i,t} >= 0``, whether a set of per-job deadlines and demands fits
  the capacity — the exact question Theorem 2 answers with the O(N log N)
  staircase test (12);
* :func:`solve_tas_lp` runs the same lexicographic layer/bisection
  structure as :func:`repro.core.onion.solve_onion` but uses the LP as the
  feasibility oracle.

It is a referee, so it shares no private code with the onion: deadlines
come from the public ``UtilityFunction.deadline_for``, the peeled ledger
is a plain sorted list, and the floor-level sacrifice is its own
Moore–Hodgson pass over :func:`lp_feasible`.  Equality of the two
solvers' answers (up to the bisection tolerance) is a property test;
their runtime gap is the onion-vs-LP ablation benchmark.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.core.onion import JobTarget, OnionJob, OnionResult, default_horizon

__all__ = ["lp_feasible", "solve_tas_lp"]


def lp_feasible(deadlines: Sequence[float], demands: Sequence[float],
                capacity: int, horizon: int) -> bool:
    """LP feasibility of completing ``demands`` by ``deadlines``.

    Variables ``x_{i,t}`` (containers of job i in slot t, relaxed to the
    reals) must satisfy the capacity constraint per slot and deliver each
    job's demand within its deadline.  Deadlines of ``-inf`` (unreachable
    utility level) or non-positive values with positive demand are
    immediately infeasible; infinite deadlines are capped at the horizon.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")
    jobs: List[Tuple[int, float]] = []  # (deadline_slots, demand)
    for d, eta in zip(deadlines, demands):
        if eta <= 0:
            continue
        if not math.isfinite(d):
            if d < 0:
                return False
            d = horizon
        d_slots = int(min(math.floor(d + 1e-9), horizon))
        if d_slots < 1:
            return False
        jobs.append((d_slots, eta))
    if not jobs:
        return True

    n = len(jobs)
    t_max = max(d for d, _ in jobs)
    n_vars = n * t_max  # x[i, t] flattened; slots 1..t_max -> index t-1

    rows: List[int] = []
    cols: List[int] = []
    vals: List[float] = []
    b_ub: List[float] = []
    # Capacity per slot: sum_i x[i, t] <= C.
    for t in range(t_max):
        for i in range(n):
            rows.append(t)
            cols.append(i * t_max + t)
            vals.append(1.0)
        b_ub.append(float(capacity))
    # Demand per job: -sum_{t <= d_i} x[i, t] <= -eta_i.
    for i, (d_slots, eta) in enumerate(jobs):
        row = t_max + i
        for t in range(d_slots):
            rows.append(row)
            cols.append(i * t_max + t)
            vals.append(-1.0)
        b_ub.append(-eta)

    a_ub = coo_matrix((vals, (rows, cols)), shape=(t_max + n, n_vars))
    result = linprog(c=np.zeros(n_vars), A_ub=a_ub, b_ub=np.asarray(b_ub),
                     bounds=(0, None), method="highs")
    return bool(result.status == 0)


def solve_tas_lp(jobs: Sequence[OnionJob], capacity: int, *,
                 tolerance: float = 0.01,
                 horizon: Optional[int] = None) -> OnionResult:
    """Lexicographic max-min TAS with the LP feasibility oracle.

    Mirrors :func:`repro.core.onion.solve_onion` layer for layer; only the
    feasibility test differs.  The bottleneck of a layer is still located
    with a staircase test (the LP reports feasibility, not a certificate),
    which is sound because Theorem 2 makes the two tests equivalent.  When
    the first layer bottoms out at the utility floor, :func:`_moore_hodgson`
    names the jobs that end there; they are pinned at the horizon and the
    layer runs again on the rest.
    """
    if capacity <= 0:
        raise InfeasiblePlanError(f"cluster capacity must be positive, got {capacity}")
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be positive, got {tolerance}")
    if horizon is None:
        horizon = default_horizon(jobs, capacity)

    targets: Dict[str, JobTarget] = {}
    active: List[int] = []
    for i, job in enumerate(jobs):
        if job.demand <= 0.0:
            value = job.utility.value(job.elapsed)
            targets[job.job_id] = JobTarget(
                job_id=job.job_id, target_completion=0,
                utility_value=value, layer=0, achievable=value > 0.0)
        else:
            active.append(i)

    #: Peeled ``(completion, demand)`` pairs, kept sorted.
    ledger: List[Tuple[float, float]] = []
    checks = 0

    def deadlines(level: float, idx: Sequence[int]) -> List[float]:
        return [_deadline(jobs[i], level, horizon) for i in idx]

    def lp_check(level: float) -> bool:
        nonlocal checks
        checks += 1
        # Fold the peeled ledger in as additional fixed jobs.
        return lp_feasible(deadlines(level, active) + [t for t, _ in ledger],
                           [jobs[i].demand for i in active]
                           + [eta for _, eta in ledger],
                           capacity, horizon)

    def bottleneck(level: float) -> int:
        """The last active job at or before the first violated point.

        On equal deadlines active entries come first, in index order.
        """
        points = sorted(
            [(d, 0, jobs[i].demand, i)
             for i, d in zip(active, deadlines(level, active))]
            + [(t, 1, eta, -1) for t, eta in ledger],
            key=lambda point: point[:2])
        prefix, last = 0.0, active[0]
        for d, _, eta, i in points:
            if i >= 0:
                last = i
            prefix += eta
            if not capacity * d - prefix >= -1e-9:
                break
        return last

    global_floor = min((job.utility.min_value() for job in jobs), default=0.0)
    global_floor = min(global_floor, 0.0)

    layer = 0
    while active:
        layer += 1
        ceiling = max(jobs[i].utility.max_value() for i in active)
        if lp_check(ceiling):
            for i, d in zip(active, deadlines(ceiling, active)):
                _peel(jobs[i], d, ledger, targets, layer, horizon)
            break
        low, high = global_floor, ceiling
        if not lp_check(low):
            raise InfeasiblePlanError(
                "even the minimum utility layer does not fit the horizon "
                f"(horizon={horizon}, capacity={capacity})")
        while high - low > tolerance:
            mid = 0.5 * (low + high)
            if lp_check(mid):
                low = mid
            else:
                high = mid
        if layer == 1 and low <= global_floor + tolerance:
            dropped = [active[pos] for pos in _moore_hodgson(
                deadlines(global_floor + tolerance, active),
                [jobs[i].demand for i in active], capacity, horizon)]
            for i in dropped:
                _peel(jobs[i], math.inf, ledger, targets, layer, horizon)
                active.remove(i)
            if dropped:
                continue
        peeled = bottleneck(high)
        _peel(jobs[peeled], _deadline(jobs[peeled], low, horizon), ledger,
              targets, layer, horizon)
        active.remove(peeled)

    return OnionResult(targets=targets, layers=layer,
                       feasibility_checks=checks, horizon=horizon)


def _deadline(job: OnionJob, level: float, horizon: int) -> float:
    """Whole slots from now by which ``job`` still attains ``level``."""
    d = job.utility.deadline_for(level) - job.elapsed - job.compensation
    if d == -math.inf:
        return d
    return float(math.floor(min(d, horizon) + 1e-9))


def _moore_hodgson(deadlines: Sequence[float], demands: Sequence[float],
                   capacity: int, horizon: int) -> List[int]:
    """Positions of the fewest jobs whose removal makes the rest LP-feasible.

    Moore (1968) for ``1||sum U_j``: in deadline order each job joins the
    kept set; when the set stops being feasible, its largest demand
    leaves (the earliest, among equals).  A job infeasible on its own
    leaves at once.
    """
    kept: List[int] = []
    dropped: List[int] = []
    for k in sorted(range(len(deadlines)), key=lambda k: deadlines[k]):
        if not lp_feasible([deadlines[k]], [demands[k]], capacity, horizon):
            dropped.append(k)
            continue
        kept.append(k)
        if not lp_feasible([deadlines[j] for j in kept],
                           [demands[j] for j in kept], capacity, horizon):
            largest = max(kept, key=lambda j: demands[j])
            kept.remove(largest)
            dropped.append(largest)
    return sorted(dropped)


def _peel(job: OnionJob, deadline: float, ledger: List[Tuple[float, float]],
          targets: Dict[str, JobTarget], layer: int, horizon: int) -> None:
    if not math.isfinite(deadline):
        completion = horizon
    else:
        completion = int(min(max(deadline, 1.0), horizon))
    value = job.utility.value(job.elapsed + completion)
    bisect.insort(ledger, (float(completion), job.demand))
    targets[job.job_id] = JobTarget(
        job_id=job.job_id, target_completion=completion,
        utility_value=value, layer=layer, achievable=value > 1e-9)
