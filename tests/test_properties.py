"""Cross-module property tests: end-to-end invariants under fuzzing.

These tests wire several subsystems together and assert the structural
invariants the paper's correctness rests on — for arbitrary (hypothesis-
generated) inputs, not hand-picked examples:

* planner level: the robust demands and targets always satisfy Theorem
  2's staircase condition, the concrete container plan respects capacity
  and Theorem 3's completion bound, and planning is deterministic;
* simulator level: for every scheduling policy and random workloads
  (including failures), capacity is never exceeded, tasks run
  contiguously, work is conserved, and metrics are internally consistent.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CapacityScheduler,
    ConstantUtility,
    EdfScheduler,
    FairScheduler,
    FifoScheduler,
    JobSpec,
    LinearUtility,
    PlannerJob,
    RrhScheduler,
    RushPlanner,
    RushScheduler,
    SigmoidUtility,
    run_simulation,
)
from repro.core.feasibility import staircase_feasible
from repro.cluster.task import TaskState
from repro.estimation import DemandEstimate, Pmf

from .retiring import hold_retired

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

utilities = st.one_of(
    st.builds(LinearUtility,
              budget=st.floats(min_value=1, max_value=500),
              priority=st.floats(min_value=0.1, max_value=10),
              beta=st.floats(min_value=0.01, max_value=2)),
    st.builds(SigmoidUtility,
              budget=st.floats(min_value=1, max_value=500),
              priority=st.floats(min_value=0.1, max_value=10),
              beta=st.floats(min_value=0.01, max_value=2)),
    st.builds(ConstantUtility, priority=st.floats(min_value=0.1, max_value=10)),
)


def estimates():
    return st.builds(
        lambda mean, std, runtime: DemandEstimate(
            pmf=Pmf.from_gaussian(mean, std, tau_max=int(mean + 6 * std) + 2),
            bin_width=1.0, container_runtime=runtime, sample_count=10),
        mean=st.floats(min_value=1, max_value=200),
        std=st.floats(min_value=0, max_value=30),
        runtime=st.floats(min_value=0.5, max_value=20))


planner_jobs = st.lists(
    st.builds(lambda u, e, elapsed: (u, e, elapsed),
              utilities, estimates(),
              st.floats(min_value=0, max_value=100)),
    min_size=1, max_size=6)


def job_specs(max_jobs: int = 6, failure: bool = False):
    def build(raw):
        specs = []
        arrival = 0
        for i, (durations, budget, fail) in enumerate(raw):
            arrival += i % 3
            specs.append(JobSpec(
                job_id=f"j{i}", arrival=arrival,
                task_durations=tuple(durations),
                utility=LinearUtility(budget, 1.0), budget=float(budget),
                prior_runtime=float(np.mean(durations)),
                failure_prob=fail if failure else 0.0))
        return specs

    raw = st.lists(
        st.tuples(st.lists(st.integers(min_value=1, max_value=12),
                           min_size=1, max_size=6),
                  st.integers(min_value=5, max_value=80),
                  st.floats(min_value=0.0, max_value=0.4)),
        min_size=1, max_size=max_jobs)
    return raw.map(build)


ALL_POLICIES = [FifoScheduler, EdfScheduler, FairScheduler,
                CapacityScheduler, RrhScheduler, RushScheduler]


# ---------------------------------------------------------------------------
# planner-level invariants
# ---------------------------------------------------------------------------

class TestPlannerInvariants:
    @settings(max_examples=30, deadline=None)
    @given(planner_jobs, st.integers(min_value=1, max_value=16),
           st.floats(min_value=0.5, max_value=0.99),
           st.floats(min_value=0.0, max_value=1.5))
    def test_plan_structural_invariants(self, raw, capacity, theta, delta):
        jobs = [PlannerJob(f"p{i}", u, e, elapsed=el)
                for i, (u, e, el) in enumerate(raw)]
        planner = RushPlanner(capacity, theta=theta, delta=delta,
                              tolerance=0.05)
        plan = planner.plan(jobs)

        # Every job decided, eta >= reference, targets within the horizon.
        assert set(plan.jobs) == {job.job_id for job in jobs}
        for decision in plan.jobs.values():
            assert decision.robust_demand >= decision.reference_demand - 1e-9
            assert 0 <= decision.target_completion <= plan.horizon

        # Theorem 2: the chosen targets satisfy the staircase condition.
        pairs = [(plan.jobs[j.job_id].target_completion,
                  plan.jobs[j.job_id].robust_demand) for j in jobs]
        assert staircase_feasible(pairs, capacity)

        # The concrete container plan never exceeds capacity.
        cp = plan.container_plan
        for t in np.linspace(0, max(cp.makespan, 1.0), 25):
            assert sum(cp.allocation_at(float(t)).values()) <= capacity

        # Theorem 3: with feasible targets, completion <= target + R.
        if not cp.overflowed:
            for job in jobs:
                decision = plan.jobs[job.job_id]
                assert cp.completion(job.job_id) <= (
                    decision.target_completion
                    + job.estimate.container_runtime + 1e-6)

    @settings(max_examples=15, deadline=None)
    @given(planner_jobs, st.integers(min_value=1, max_value=8))
    def test_plan_deterministic(self, raw, capacity):
        jobs = [PlannerJob(f"p{i}", u, e, elapsed=el)
                for i, (u, e, el) in enumerate(raw)]
        planner = RushPlanner(capacity, tolerance=0.05)
        p1, p2 = planner.plan(jobs), planner.plan(jobs)
        for job_id in p1.jobs:
            assert (p1.jobs[job_id].target_completion
                    == p2.jobs[job_id].target_completion)
            assert p1.jobs[job_id].robust_demand == \
                p2.jobs[job_id].robust_demand

    @settings(max_examples=20, deadline=None)
    @given(planner_jobs, st.integers(min_value=1, max_value=8),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.6, max_value=2.0))
    def test_robust_demand_monotone_in_delta(self, raw, capacity, d1, d2):
        jobs = [PlannerJob(f"p{i}", u, e, elapsed=el)
                for i, (u, e, el) in enumerate(raw)]
        lo = RushPlanner(capacity, delta=d1, tolerance=0.05).plan(jobs)
        hi = RushPlanner(capacity, delta=d2, tolerance=0.05).plan(jobs)
        for job_id in lo.jobs:
            assert hi.jobs[job_id].robust_demand >= \
                lo.jobs[job_id].robust_demand - 1e-9


# ---------------------------------------------------------------------------
# simulator-level invariants
# ---------------------------------------------------------------------------

def _check_simulation_invariants(specs, result, capacity):
    assert len(result.records) == len(specs)
    for record in result.records:
        assert record.runtime >= 0
        if record.completed:
            # runtime at least the critical path: the longest single
            # task runs start to finish on one container, and a failure
            # only restarts it.
            spec = next(s for s in specs if s.job_id == record.job_id)
            assert record.runtime >= max(spec.task_durations)
    # capacity accounting: busy slots cannot exceed capacity * time
    assert result.busy_container_slots <= capacity * result.slots_simulated
    # without failures, work is conserved exactly
    total_work = sum(s.total_work for s in specs)
    if result.task_failures == 0 and result.completed_count == len(specs):
        assert result.busy_container_slots == total_work


class TestSimulatorInvariants:
    @settings(max_examples=10, deadline=None)
    @given(job_specs(max_jobs=5), st.integers(min_value=1, max_value=5),
           st.sampled_from(ALL_POLICIES))
    def test_invariants_without_failures(self, specs, capacity, policy):
        result = run_simulation(specs, capacity, policy(), max_slots=20_000)
        assert result.completed_count == len(specs)
        _check_simulation_invariants(specs, result, capacity)

    @settings(max_examples=10, deadline=None)
    @given(job_specs(max_jobs=4, failure=True),
           st.integers(min_value=1, max_value=4),
           st.sampled_from([FifoScheduler, RushScheduler, EdfScheduler]))
    def test_invariants_with_failures(self, specs, capacity, policy):
        result = run_simulation(specs, capacity, policy(),
                                max_slots=50_000, seed=3)
        assert result.completed_count == len(specs)
        _check_simulation_invariants(specs, result, capacity)

    @settings(max_examples=8, deadline=None)
    @given(job_specs(max_jobs=4), st.integers(min_value=1, max_value=4))
    def test_task_continuity(self, specs, capacity):
        """Every completed attempt ran contiguously for its duration."""
        from repro.cluster.simulator import ClusterSimulator

        sim = ClusterSimulator(capacity, FifoScheduler())
        for spec in specs:
            sim.submit(spec)
        finished = hold_retired(sim)
        sim.run(max_slots=20_000)
        for spec in specs:
            job = finished.get(spec.job_id) or sim.job(spec.job_id)
            for task in job.tasks:
                if task.state is TaskState.COMPLETED:
                    assert task.finish_time - task.start_time == task.duration
