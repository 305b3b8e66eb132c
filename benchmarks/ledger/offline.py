"""``offline-core``: the researcher's traffic — no service, one process.

Two uses of the same solver, at opposite ends:

(a) the paper's section V-B workload at full scale (100 jobs, 48
    containers, budget ratio 1.5) through ``run_simulation`` under RUSH
    — thousands of *small* plans (a handful of active jobs each) with
    ``cluster.simulator``, ``schedulers.rush`` and ``estimation`` around
    them — plus FIFO, EDF and RRH on the same workload for reference;
(b) ``IncrementalPlanner(RushPlanner(48), warm_start=False)`` — the
    configuration ``RushScheduler`` runs — on a 2 000-job synthetic
    fleet: one cold plan, then three replans with 2 % of the jobs
    dirtied.  Four *huge* plans.

A vectorisation that wins (b) by adding per-call overhead loses (a).  No
HTTP and no WAL: predicted flat under any service change.

This workload is part of the ledger (``run.py`` without ``--workload``,
``compare.py``) but not of ``BENCHMARK.json``: the benchmark driver
wants every end-to-end metric on every workload, and these do not exist
on a server.  It has its own metric list, :data:`END_TO_END`.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List, Tuple

import numpy as np

import tracing
from attribution import SpanTable, per_layer
from driver import SCHEDULER_OPTIONS, obs_overhead
from repro import (GaussianEstimator, IncrementalPlanner, PlannerJob,
                   RushPlanner, SchedulePlan, SigmoidUtility)
from repro.cluster.simulator import run_simulation
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.rrh import RrhScheduler
from repro.schedulers.rush import RushScheduler
from repro.workload.generator import WorkloadConfig, generate_workload

#: This workload's end-to-end metrics, in ``BENCHMARK.json``'s shape.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "cold_plan_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "churn_replan_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_mean_utility", "unit": "utility", "better": "higher",
     "bound": 0.01},
]

CAPACITY = 48
SIM_JOBS, QUICK_SIM_JOBS = 100, 12
PLAN_JOBS, QUICK_PLAN_JOBS = 2000, 300
BUDGET_RATIO = 1.5
REPLANS = 3
DIRTY_SHARE = 0.02
SETUPS = 3
#: RushScheduler's own planner settings (``tolerance`` is its default).
PLANNER_OPTIONS = {**SCHEDULER_OPTIONS, "tolerance": 0.05}
BASELINES = {"fifo": FifoScheduler, "edf": EdfScheduler, "rrh": RrhScheduler}


def synthetic_fleet(count: int, seed: int) -> Tuple[List[PlannerJob], list, List[int]]:
    """``count`` planner jobs with live estimators (for dirtying).

    Same fleet shape (and :func:`plans_equal`, below) as
    ``benchmarks/bench_planner_incremental.py``; kept here so that file
    and ``_legacy_planner.py`` can be deleted without touching the ledger.
    """
    rng = np.random.default_rng([seed, 3])
    jobs, estimators, pendings = [], [], []
    for k in range(count):
        estimator = GaussianEstimator(prior_mean=float(rng.uniform(30, 90)),
                                      prior_std=float(rng.uniform(5, 25)))
        estimator.observe_many(rng.normal(60, 15, size=10).clip(min=1.0))
        pending = int(rng.integers(10, 120))
        jobs.append(PlannerJob(
            f"wc-{k:04d}",
            SigmoidUtility(budget=float(rng.uniform(100, 2000)),
                           priority=float(rng.integers(1, 6)),
                           beta=float(rng.uniform(0.01, 1.0))),
            estimator.estimate(pending_tasks=pending)))
        estimators.append(estimator)
        pendings.append(pending)
    return jobs, estimators, pendings


def plans_equal(a: SchedulePlan, b: SchedulePlan) -> bool:
    """Field-for-field planning outcome: etas, targets, next-slot grants."""
    if set(a.jobs) != set(b.jobs):
        return False
    for job_id, pa in a.jobs.items():
        pb = b.jobs[job_id]
        if (pa.robust_demand, pa.reference_demand, pa.target_completion,
                pa.planned_completion, pa.predicted_utility) != \
           (pb.robust_demand, pb.reference_demand, pb.target_completion,
                pb.planned_completion, pb.predicted_utility):
            return False
    return a.next_slot_allocation() == b.next_slot_allocation()


def _set_up(seed: int, sim_jobs: int, plan_jobs: int) -> Tuple[list, tuple]:
    specs = generate_workload(
        WorkloadConfig(n_jobs=sim_jobs, capacity=CAPACITY,
                       budget_ratio=BUDGET_RATIO), seed=seed)
    return specs, synthetic_fleet(plan_jobs, seed)


def _mean_utility(result: Any) -> float:
    return statistics.fmean(r.utility_value for r in result.records)


def _dirty(jobs: List[PlannerJob], estimators: list, pendings: List[int],
           rng: np.random.Generator) -> List[PlannerJob]:
    """A copy of ``jobs`` with 2 % of them having seen one more sample."""
    current = list(jobs)
    count = max(1, int(len(jobs) * DIRTY_SHARE))
    for idx in rng.choice(len(jobs), count, replace=False):
        estimators[idx].observe(max(1.0, float(rng.normal(60, 15))))
        pendings[idx] = max(1, pendings[idx] - 1)
        old = current[idx]
        current[idx] = PlannerJob(
            old.job_id, old.utility,
            estimators[idx].estimate(pending_tasks=pendings[idx]))
    return current


def run_offline(*, seed: int, quick: bool = False,
                traced: bool = False) -> Dict[str, Any]:
    """One run of ``offline-core``; fixed work, so no ``seconds``.

    ``traced`` wraps the same layer entry points the traced server does,
    in this process, and adds the span-derived per-layer metrics.
    """
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder) if traced else None
    try:
        result = _run(seed, quick)
        if traced:
            result["diagnostics"].update(_traced_metrics(
                recorder, seed, result["measured_from"]))
            result["spans"] = {"window": recorder.spans}
    finally:
        if uninstall is not None:
            uninstall()
    return result


def _traced_metrics(recorder: tracing.Recorder, seed: int,
                    since: float) -> Dict[str, float]:
    spans = list(recorder.spans)
    # No wire and no queue here: a "tick" is one simulator step, and the
    # request is its root span.
    requests = [("tick", s[1], s[1], s[2], None) for s in spans
                if s[3] < 0 and s[0] == "simulator.step"]
    out = per_layer(SpanTable(spans, since=since), requests, since,
                    root_of_kind={"tick": "simulator.step"})
    specs, _ = _set_up(seed, QUICK_SIM_JOBS, 1)
    out["obs.overhead_ratio"] = obs_overhead(lambda: run_simulation(
        specs, CAPACITY, RushScheduler(**SCHEDULER_OPTIONS), seed=seed))
    return out


def _run(seed: int, quick: bool) -> Dict[str, Any]:
    sim_jobs = QUICK_SIM_JOBS if quick else SIM_JOBS
    plan_jobs = QUICK_PLAN_JOBS if quick else PLAN_JOBS
    clock = time.perf_counter
    problems: List[str] = []

    setup_times = []
    for _ in range(1 if quick else SETUPS):
        start = clock()
        specs, (jobs, estimators, pendings) = _set_up(seed, sim_jobs, plan_jobs)
        setup_times.append(clock() - start)

    baselines = {
        name: _mean_utility(run_simulation(specs, CAPACITY, build(), seed=seed))
        for name, build in BASELINES.items()}
    measured_from = clock()  # a traced run attributes from here on

    scheduler = RushScheduler(**SCHEDULER_OPTIONS)
    start = clock()
    result = run_simulation(specs, CAPACITY, scheduler, seed=seed)
    sim_wall = clock() - start
    if result.completed_count != len(specs):
        problems.append(f"only {result.completed_count} of {len(specs)} "
                        "simulated jobs completed")

    rng = np.random.default_rng([seed, 4])
    incremental = IncrementalPlanner(RushPlanner(CAPACITY, **PLANNER_OPTIONS),
                                     warm_start=False)
    start = clock()
    plan = incremental.plan(jobs)
    cold_plan = clock() - start
    onion_share = plan.stats.onion_seconds / plan.solve_seconds
    replans = []
    current = jobs
    for _ in range(REPLANS):
        current = _dirty(current, estimators, pendings, rng)
        start = clock()
        plan = incremental.plan(current)
        replans.append(clock() - start)
    reference = RushPlanner(CAPACITY, **PLANNER_OPTIONS).plan(current)
    if not plans_equal(plan, reference):
        problems.append("incremental plan differs from a cold RushPlanner.plan")

    metrics = {
        "setup_s": statistics.median(setup_times),
        "sim_wall_s": sim_wall,
        "cold_plan_s": cold_plan,
        "churn_replan_s": statistics.median(replans),
        "sim_mean_utility": _mean_utility(result),
    }
    diagnostics = {
        "offline.cold_onion_share": onion_share,
        "offline.sim_plans": float(scheduler.plans_computed),
        "offline.sim_slots": float(result.slots_simulated),
        "scheduler.fallbacks": float(scheduler.profile()["fallbacks"]),
        **{f"offline.{name}_mean_utility": value
           for name, value in baselines.items()},
    }
    return {
        "workload": "offline-core", "seed": seed,
        "metrics": metrics, "diagnostics": diagnostics,
        "attempted": result.slots_simulated + 1 + REPLANS, "failed": 0,
        "conflicts": 0,
        "samples": {"slots": result.slots_simulated,
                    "plans": scheduler.plans_computed, "big_plans": 1 + REPLANS},
        "problems": problems, "spans": {}, "measured_from": measured_from,
    }
