"""Hypothesis-driven chaos properties: invariants under injected faults.

The fault subsystem may crash containers, stretch tasks, kill jobs,
corrupt samples and starve the solver — but it must never be able to
break the cluster's structural invariants:

* capacity conservation — never more busy containers than exist, and a
  revoked container never runs work while offline;
* no lost or duplicated tasks — every logical task of every completed
  job completes exactly once, regardless of crash/kill/retry churn;
* monotone degradation — under the plans' monotone coupling, raising the
  fault intensity never *improves* a straggler-afflicted job's runtime;
* incremental/cold equivalence — the incremental planner stays
  bit-identical to cold re-solves under fault churn;
* graceful degradation everywhere — no fault intensity can surface an
  unhandled solver exception; every failed solve lands on a recorded
  ladder rung;
* the stored completion slot — what ``SimJob.completion_time`` recorded
  at the completing transition is what a scan over every attempt finds,
  with retries and cancellations in flight;
* one live attempt per logical task — failure retries are sequential,
  and a job's running count is the containers holding its tasks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cluster import ClusterSimulator, JobSpec, run_simulation
from repro.cluster.task import TaskState
from repro.faults import (
    ContainerCrashInjector,
    FaultPlan,
    JobKillInjector,
    SpecFailureInjector,
    StragglerInjector,
    default_chaos_plan,
)
from repro.schedulers import FifoScheduler, RushScheduler
from repro.utility import LinearUtility
from repro.workload.scenarios import SCENARIOS, build_scenario_workload

from .retiring import hold_retired

# The chaos battery runs hundreds of seeded fault-injected simulations;
# the fast CI lane deselects it (-m "not slow"), the full lane runs it.
pytestmark = pytest.mark.slow

# ---------------------------------------------------------------------------
# strategies


def spec(job_id, durations, arrival=0, failure_prob=0.0, budget=100.0):
    return JobSpec(job_id=job_id, arrival=arrival,
                   task_durations=tuple(durations),
                   utility=LinearUtility(budget, 1.0),
                   budget=budget, failure_prob=failure_prob)


workloads = st.lists(
    st.tuples(st.lists(st.integers(1, 6), min_size=1, max_size=3),
              st.integers(0, 8),        # arrival
              st.floats(0.0, 0.6)),     # failure_prob
    min_size=1, max_size=4)

chaos_plans = st.builds(
    lambda seed, intensity: default_chaos_plan(seed=seed,
                                               intensity=intensity),
    seed=st.integers(0, 2**16), intensity=st.floats(0.0, 3.0))


def make_specs(workload):
    return [spec(f"j{k}", durations, arrival, failure_prob)
            for k, (durations, arrival, failure_prob)
            in enumerate(workload)]


# ---------------------------------------------------------------------------
# capacity conservation


class TestCapacityConservation:
    @settings(max_examples=15, deadline=None)
    @given(workload=workloads, seed=st.integers(0, 2**16),
           intensity=st.floats(0.0, 4.0))
    def test_faults_never_oversubscribe_containers(self, workload, seed,
                                                   intensity):
        plan = FaultPlan([ContainerCrashInjector(rate=0.2, revoke_slots=3),
                          StragglerInjector(rate=0.2),
                          JobKillInjector(rate=0.1),
                          SpecFailureInjector()],
                         seed=seed, intensity=intensity)
        sim = ClusterSimulator(2, FifoScheduler(), faults=plan)
        for s in make_specs(workload):
            sim.submit(s)
        for _ in range(300):
            if not (sim._pending_arrivals or sim._active):
                break
            sim.step()
            busy = sum(1 for c in sim.containers if c.task is not None)
            assert busy <= sim.capacity
            running = sum(j.running_count for j in sim.active_jobs)
            assert running == busy
            for c in sim.containers:
                # a crash clears its task the same slot, so a container
                # still inside its revocation window must be empty — the
                # scheduler can never place work on revoked capacity
                if c.offline_until > sim.now:
                    assert c.task is None


# ---------------------------------------------------------------------------
# no lost or duplicated tasks


class TestNoLostOrDuplicatedTasks:
    @settings(max_examples=15, deadline=None)
    @given(workload=workloads, plan=chaos_plans)
    def test_every_logical_task_completes_exactly_once(self, workload, plan):
        specs = make_specs(workload)
        sim = ClusterSimulator(2, FifoScheduler(), faults=plan)
        for s in specs:
            sim.submit(s)
        finished = hold_retired(sim)
        result = sim.run(max_slots=4000)
        for s in specs:
            job = finished.get(s.job_id) or sim.job(s.job_id)
            completed = [t for t in job.tasks
                         if t.state is TaskState.COMPLETED]
            by_logical = {}
            for t in completed:
                by_logical[t.logical_id] = by_logical.get(t.logical_id, 0) + 1
            # never a duplicated completion, even with kill/crash churn
            assert all(n == 1 for n in by_logical.values())
            if not result.timed_out:
                # and never a lost one: all logical tasks accounted for
                assert len(by_logical) == len(s.task_durations)
                assert job.is_complete


# ---------------------------------------------------------------------------
# monotone degradation under coupled intensities


class TestMonotoneDegradation:
    @settings(max_examples=20, deadline=None)
    @given(duration=st.integers(4, 40), seed=st.integers(0, 2**16),
           rate=st.floats(0.05, 0.5),
           low=st.floats(0.1, 2.0), bump=st.floats(0.1, 2.0))
    def test_straggler_runtime_nondecreasing_in_intensity(
            self, duration, seed, rate, low, bump):
        # Single job, single container, straggler only: the decision
        # draws align across intensities (one per running slot), so the
        # higher intensity strikes no later — runtime never shrinks.
        def runtime(intensity):
            plan = FaultPlan([StragglerInjector(rate=rate, slowdown=2.0)],
                             seed=seed, intensity=intensity)
            result = run_simulation([spec("j", (duration,))], 1,
                                    FifoScheduler(), faults=plan,
                                    max_slots=4000)
            assert not result.timed_out
            return result.records[0].runtime

        assert runtime(low) <= runtime(low + bump)


# ---------------------------------------------------------------------------
# incremental vs cold equivalence under fault churn


def _comparable(result):
    d = result.to_dict()
    d.pop("planner_seconds", None)  # wall-clock
    return d


class TestIncrementalColdEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(workload=workloads, seed=st.integers(0, 2**16),
           intensity=st.floats(0.0, 2.0))
    def test_bit_identical_under_fault_churn(self, workload, seed,
                                             intensity):
        specs = make_specs(workload)

        def once(incremental):
            return run_simulation(
                specs, 2, RushScheduler(incremental=incremental),
                faults=default_chaos_plan(seed=seed, intensity=intensity),
                max_slots=2000)

        assert _comparable(once(True)) == _comparable(once(False))


# ---------------------------------------------------------------------------
# graceful degradation: no unhandled solver exceptions, ever


class TestNoUnhandledSolverFailures:
    @settings(max_examples=10, deadline=None)
    @given(workload=workloads, seed=st.integers(0, 2**16),
           intensity=st.floats(0.0, 6.0))
    def test_every_intensity_runs_to_result(self, workload, seed, intensity):
        handle = obs.enable(trace=True, metrics=False, ledger=False)
        try:
            result = run_simulation(
                make_specs(workload), 2, RushScheduler(),
                faults=default_chaos_plan(seed=seed, intensity=intensity),
                max_slots=1500)
        finally:
            obs.reset()
        # the run produced a result (no exception escaped the ladder) and
        # every failed solve is accounted for on a recorded rung: once in
        # the trace, as it happened, and once in the fault log
        traced = sum(1 for span in handle.tracer.spans
                     if span.name == "degradation.fallback")
        assert result.fallback_count == traced
        degradations = sum(1 for e in result.fault_events
                           if e.kind.startswith("degradation:"))
        assert degradations == result.fallback_count


# ---------------------------------------------------------------------------
# the stored completion slot


def scanned_completion(job):
    """``SimJob.completion_time`` as it was computed before it was stored:
    the latest finish over every completed attempt of a complete job."""
    if not job.is_complete:
        return None
    return max(t.finish_time for t in job.tasks
               if t.state is TaskState.COMPLETED)


def assert_one_live_attempt_per_logical_task(sim, job):
    """At most one PENDING-or-RUNNING attempt per logical id, and the
    running count is exactly the containers holding the job's tasks."""
    live = [t.logical_id for t in job.tasks
            if t.state in (TaskState.PENDING, TaskState.RUNNING)]
    assert len(live) == len(set(live))
    held = sum(1 for c in sim.containers
               if c.task is not None and c.task.job_id == job.job_id)
    assert job.running_count == held


class TestStoredCompletionSlot:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("policy", ["fifo", "rush"])
    def test_stored_slot_equals_the_scan_at_every_slot(self, name, policy):
        """Each library scenario under the all-injector chaos plan — spec
        failures and crashes force retries, every 100th slot withdraws a
        live job — and after every slot every job's stored completion
        slot is what a scan over its attempts finds, with one live
        attempt per logical task.  A job is checked on every slot while
        it is live, and once more as it retires: the simulator drops a
        finished job then, so nothing about it changes afterwards."""
        scenario = SCENARIOS[name]
        specs = build_scenario_workload(scenario, seed=0, fast=True)[:20]
        scheduler = FifoScheduler() if policy == "fifo" else RushScheduler()
        sim = ClusterSimulator(
            scenario.capacity(fast=True), scheduler, seed=7,
            faults=default_chaos_plan(seed=7, intensity=3.0))
        for job_spec in specs:
            sim.submit(job_spec)

        def check(job):
            assert job.completion_time == scanned_completion(job)
            assert_one_live_attempt_per_logical_task(sim, job)

        retired = hold_retired(sim, check)
        slots = 0
        while (sim.active_jobs or sim.now <= specs[-1].arrival) \
                and slots < 4000:
            sim.step()
            slots += 1
            if slots % 100 == 0 and sim.active_jobs:
                sim.cancel_job(sim.active_jobs[-1].job_id)
            for job in sim.active_jobs:
                check(job)
        assert sim.completed_jobs and sim.cancelled_jobs
        assert len(retired) == sim.completed_count + sim.cancelled_count
        assert sim.task_failures > 0
