"""Seed-swept cold ≡ incremental equivalence, with and without faults.

The incremental planning engine's headline contract is that it is
*bit-identical* to the stateless cold planner — same robust demands,
targets, grants and therefore the same simulated schedule.  The
hypothesis suite in ``test_incremental.py`` fuzzes the planner in
isolation; this module sweeps the contract end-to-end across many seeds
(it replaces the old single-seed ``rng(3)`` spot check):

* **planner level** — for each seed, a :class:`RushPlanner` replanning
  an unchanged snapshot from its warm WCDE cache, and one that sees one
  job's estimate replaced, both produce the plan the uncached
  ``RushPlanner(wcde_cache_size=0)`` produces, probe for probe;
* **simulator level** — for each (seed, faults) point, a full
  simulation with ``RushScheduler(incremental=True)`` equals one with
  ``incremental=False``, fault events included, comparing the entire
  ``SimulationResult.to_dict()`` minus the wall-clock profiling field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PlannerJob,
    RushPlanner,
    RushScheduler,
    SigmoidUtility,
    run_simulation,
)
from repro.estimation import DemandEstimate, Pmf
from repro.faults import default_chaos_plan
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

PLANNER_SEEDS = list(range(20))
SIM_SEEDS = list(range(0, 40, 2))

SWEEP_CONFIG = WorkloadConfig(n_jobs=6, capacity=4, mean_interarrival=120.0,
                              budget_ratio=1.5, size_gb_range=(0.5, 1.0),
                              time_scale=0.25)


def random_jobs(seed: int, n: int = 12):
    """The old spot check's job generator, now swept over seeds."""
    rng = np.random.default_rng(seed)
    return [
        PlannerJob(f"j{i}", SigmoidUtility(float(rng.uniform(100, 900)),
                                           float(rng.integers(1, 6))),
                   DemandEstimate(
                       Pmf.from_gaussian(float(rng.uniform(20, 80)), 8.0,
                                         tau_max=300),
                       bin_width=1.0, container_runtime=5.0,
                       sample_count=4),
                   elapsed=float(rng.uniform(0, 30)))
        for i in range(n)]


def plans_equal(a, b) -> bool:
    if set(a.jobs) != set(b.jobs):
        return False
    for job_id, pa in a.jobs.items():
        pb = b.jobs[job_id]
        if (pa.robust_demand, pa.reference_demand, pa.target_completion,
                pa.planned_completion, pa.predicted_utility, pa.layer) != \
           (pb.robust_demand, pb.reference_demand, pb.target_completion,
                pb.planned_completion, pb.predicted_utility, pb.layer):
            return False
    return (a.next_slot_allocation() == b.next_slot_allocation()
            and probes(a) == probes(b))


def probes(plan):
    """The onion's work on a plan: equal plans were reached probe for probe."""
    return (plan.stats.peels, plan.stats.feasibility_checks,
            plan.stats.certified_probes)


def schedule_dict(result):
    """``to_dict()`` minus the only legitimately run-dependent field."""
    data = result.to_dict()
    data.pop("planner_seconds", None)
    return data


# ---------------------------------------------------------------------------
# Planner level: incremental replan ≡ cold plan, unchanged and after
# churn, 20 seeds each
# ---------------------------------------------------------------------------

def cold_planner() -> RushPlanner:
    """The uncached reference every warm plan is compared with."""
    return RushPlanner(16, tolerance=0.05, wcde_cache_size=0)


@pytest.mark.parametrize("seed", PLANNER_SEEDS)
def test_warm_replan_equals_cold_plan(seed):
    """"Warm" is the planner's WCDE cache — the only state a planner
    carries across rounds; the onion is solved cold either way."""
    jobs = random_jobs(seed)
    warm = RushPlanner(16, tolerance=0.05)
    warm.plan(jobs)                       # fills the cache
    replan = warm.plan(jobs)              # unchanged snapshot
    assert replan.stats.wcde_cache_hits == len(jobs)
    assert plans_equal(replan, cold_planner().plan(jobs))


@pytest.mark.parametrize("seed", PLANNER_SEEDS)
def test_incremental_equals_cold_after_churn(seed):
    """Perturb one job between plans; the next plan still matches cold."""
    rng = np.random.default_rng(seed + 1000)
    jobs = random_jobs(seed)
    warm = RushPlanner(16, tolerance=0.05)
    warm.plan(jobs)
    victim = int(rng.integers(0, len(jobs)))
    jobs[victim] = PlannerJob(
        jobs[victim].job_id, jobs[victim].utility,
        DemandEstimate(
            Pmf.from_gaussian(float(rng.uniform(20, 80)), 8.0, tau_max=300),
            bin_width=1.0, container_runtime=5.0, sample_count=5),
        elapsed=jobs[victim].elapsed)
    replan = warm.plan(jobs)
    assert replan.stats.wcde_cache_misses == 1
    assert plans_equal(replan, cold_planner().plan(jobs))


# ---------------------------------------------------------------------------
# Simulator level: full runs, faults on/off
# ---------------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("faulted", [False, True],
                         ids=["faults-off", "faults-on"])
@pytest.mark.parametrize("seed", SIM_SEEDS)
def test_simulated_schedule_identical_cold_vs_incremental(seed, faulted):
    specs = WorkloadGenerator(SWEEP_CONFIG, seed=seed).generate()
    results = []
    for incremental in (True, False):
        faults = default_chaos_plan(seed=seed) if faulted else None
        results.append(run_simulation(
            specs, 4, RushScheduler(incremental=incremental),
            seed=seed, max_slots=20_000, faults=faults))
    assert schedule_dict(results[0]) == schedule_dict(results[1])
    if faulted:
        assert results[0].fault_events == results[1].fault_events
