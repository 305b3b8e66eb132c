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

Equality of the two solvers' answers (up to the bisection tolerance) is a
property test; their runtime gap is the onion-vs-LP ablation benchmark.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix

from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.core.onion import (
    JobTarget,
    OnionJob,
    OnionResult,
    _DeadlineBank,
    _PeeledLedger,
    _lookahead_level,
    default_horizon,
)

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
                 horizon: Optional[int] = None,
                 lookahead: int = 4) -> OnionResult:
    """Lexicographic max-min TAS with the LP feasibility oracle.

    Mirrors :func:`repro.core.onion.solve_onion` layer for layer; only the
    feasibility test differs.  The bottleneck of a layer is still located
    with the staircase test (the LP reports feasibility, not a certificate),
    which is sound because Theorem 2 makes the two tests equivalent.
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

    bank = _DeadlineBank(jobs, horizon)
    ledger = _PeeledLedger(len(jobs), capacity)
    demands = np.array([job.demand for job in jobs], dtype=float)
    checks = 0

    def lp_check(level: float, active_idx: np.ndarray) -> bool:
        nonlocal checks
        checks += 1
        d = bank.deadlines(level)[active_idx]
        # Fold the peeled ledger in as additional fixed jobs.
        return lp_feasible(list(d) + list(ledger.times),
                           list(demands[active_idx]) + list(ledger.demands),
                           capacity, horizon)

    def staircase(level: float, active_idx: np.ndarray,
                  frozen: Optional[Tuple[np.ndarray, np.ndarray]] = None):
        # ``frozen`` stands in for the peeled ledger: the lookahead passes
        # the ledger with its tentative pin already merged in.
        f_times, f_demands = ((ledger.times, ledger.demands)
                              if frozen is None else frozen)
        d_active = bank.deadlines(level)[active_idx]
        d_all = np.concatenate([d_active, f_times])
        eta_all = np.concatenate([demands[active_idx], f_demands])
        is_active = np.zeros(d_all.size, dtype=bool)
        is_active[: d_active.size] = True
        order = np.argsort(d_all, kind="stable")
        prefix = np.cumsum(eta_all[order])
        active_sorted = is_active[order]
        with np.errstate(invalid="ignore"):
            slack = capacity * d_all[order] - prefix
        violated = np.nonzero(~(slack >= -1e-9))[0]
        if violated.size == 0:
            return True, []
        first = int(violated[0])
        active_positions = np.nonzero(active_sorted[: first + 1])[0]
        if not active_positions.size:  # pragma: no cover - defensive
            active_positions = np.nonzero(active_sorted)[0][:1]
        return False, [int(active_idx[order[pos]]) for pos in active_positions]

    global_floor = min((job.utility.min_value() for job in jobs), default=0.0)
    global_floor = min(global_floor, 0.0)

    layer = 0
    while active:
        layer += 1
        active_idx = np.array(active, dtype=int)
        ceiling = max(jobs[i].utility.max_value() for i in active)
        if lp_check(ceiling, active_idx):
            deadlines = bank.deadlines(ceiling)[active_idx]
            for pos, i in enumerate(active_idx):
                _peel(jobs[i], float(deadlines[pos]), ledger, targets, layer, horizon)
            active.clear()
            break
        low, high = global_floor, ceiling
        if not lp_check(low, active_idx):
            raise InfeasiblePlanError(
                "even the minimum utility layer does not fit the horizon "
                f"(horizon={horizon}, capacity={capacity})")
        while high - low > tolerance:
            mid = 0.5 * (low + high)
            if lp_check(mid, active_idx):
                low = mid
            else:
                high = mid
        _, candidates = staircase(high, active_idx)
        if not candidates:  # pragma: no cover - defensive
            candidates = [active[0]]
        bottleneck = candidates[-1]
        # Same floor-level sacrifice lookahead as solve_onion (Theorem 2
        # lets the cheap staircase oracle stand in for the LP here).
        if (lookahead > 0 and len(candidates) > 1
                and low <= global_floor + tolerance):
            best_level = -math.inf
            for candidate in candidates[-lookahead:]:
                pin = min(max(float(bank.deadlines(low)[candidate]), 1.0),
                          horizon)
                if not math.isfinite(pin):
                    pin = float(horizon)
                remaining = np.array([i for i in active if i != candidate],
                                     dtype=int)
                frozen = (np.append(ledger.times, pin),
                          np.append(ledger.demands, demands[candidate]))
                level = _lookahead_level(
                    staircase, remaining, frozen, global_floor,
                    max((jobs[i].utility.max_value() for i in remaining),
                        default=global_floor),
                    tolerance)
                if level > best_level + 1e-12:
                    best_level = level
                    bottleneck = candidate
        deadline = float(bank.deadlines(low)[bottleneck])
        _peel(jobs[bottleneck], deadline, ledger, targets, layer, horizon)
        active.remove(bottleneck)

    return OnionResult(targets=targets, layers=layer,
                       feasibility_checks=checks, horizon=horizon)


def _peel(job: OnionJob, deadline: float, ledger: _PeeledLedger,
          targets: Dict[str, JobTarget], layer: int, horizon: int) -> None:
    if not math.isfinite(deadline):
        completion = horizon
    else:
        completion = int(min(max(deadline, 1.0), horizon))
    value = job.utility.value(job.elapsed + completion)
    ledger.commit(np.array([completion], dtype=float),
                  np.array([job.demand]))
    targets[job.job_id] = JobTarget(
        job_id=job.job_id, target_completion=completion,
        utility_value=value, layer=layer, achievable=value > 1e-9)
