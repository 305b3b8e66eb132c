"""The incremental planning engine: the WCDE memo and dirty tracking.

Three layers of guarantees:

* :class:`~repro.core.wcde.WcdeCache` is a content-addressed, bounded
  LRU whose hits return the exact solve result, and the lazy
  ``worst_pmf`` matches the eager solve;
* a :class:`~repro.core.planner.RushPlanner` reused across rounds (its
  cache warm) is *bit-identical* to the uncached reference
  ``RushPlanner(wcde_cache_size=0)`` — same robust demands, targets,
  next-slot grants and onion probes — under hypothesis-fuzzed job sets
  and arbitrary estimate-churn sequences;
* :class:`~repro.schedulers.rush.RushScheduler` invalidates its cached
  per-job estimates exactly when the paper's feedback cycle demands:
  on arrival, task launch, completion and failure — and only then.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IncrementalPlanner,
    LinearUtility,
    PlannerJob,
    RushPlanner,
    RushScheduler,
    SigmoidUtility,
    WcdeCache,
)
import repro.core
from repro.core.onion import OnionResult, solve_onion
from repro.core.planner import PlanStats, SchedulePlan
from repro.core.wcde import solve_wcde, solve_wcde_batch
from repro.errors import ConfigurationError
from repro.estimation import DemandEstimate, Pmf

from .oracles import linear_scan_eta, mixed_path_rows

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

pmfs = st.builds(
    lambda mean, std: Pmf.from_gaussian(
        mean, std, tau_max=int(mean + 6 * std) + 2),
    mean=st.floats(min_value=1, max_value=150),
    std=st.floats(min_value=0, max_value=25))

estimates = st.builds(
    lambda pmf, width, runtime: DemandEstimate(
        pmf=pmf, bin_width=width, container_runtime=runtime, sample_count=5),
    pmf=pmfs,
    width=st.sampled_from([1.0, 2.0]),
    runtime=st.floats(min_value=0.5, max_value=20))

utilities = st.one_of(
    st.builds(LinearUtility,
              budget=st.floats(min_value=1, max_value=500),
              priority=st.floats(min_value=0.1, max_value=10)),
    st.builds(SigmoidUtility,
              budget=st.floats(min_value=1, max_value=500),
              priority=st.floats(min_value=0.1, max_value=10),
              beta=st.floats(min_value=0.01, max_value=1)))

job_sets = st.lists(
    st.tuples(utilities, estimates,
              st.floats(min_value=0, max_value=80),    # elapsed
              st.floats(min_value=0, max_value=40)),   # extra_demand
    min_size=1, max_size=6)


def build_jobs(raw):
    return [PlannerJob(f"j{i}", u, e, elapsed=el, extra_demand=ex)
            for i, (u, e, el, ex) in enumerate(raw)]


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


# ---------------------------------------------------------------------------
# WcdeCache
# ---------------------------------------------------------------------------

class TestWcdeCache:
    def test_hit_returns_shared_result(self):
        cache = WcdeCache()
        pmf = Pmf.from_gaussian(40, 8, tau_max=100)
        first = cache.solve(pmf, 0.9, 0.7)
        second = cache.solve(pmf, 0.9, 0.7)
        assert first is second
        assert (cache.hits, cache.misses) == (1, 1)
        assert first.eta_bin == solve_wcde(pmf, 0.9, 0.7).eta_bin

    def test_content_addressing_across_objects(self):
        """Equal distributions share an entry even as distinct objects."""
        cache = WcdeCache()
        probs = Pmf.from_gaussian(40, 8, tau_max=100).probs
        a, b = Pmf(probs), Pmf(probs)
        assert a is not b
        cache.solve(a, 0.9, 0.7)
        cache.solve(b, 0.9, 0.7)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_distinct_theta_delta_are_distinct_entries(self):
        cache = WcdeCache()
        pmf = Pmf.from_gaussian(40, 8, tau_max=100)
        cache.solve(pmf, 0.9, 0.7)
        cache.solve(pmf, 0.8, 0.7)
        cache.solve(pmf, 0.9, 0.3)
        assert cache.misses == 3 and cache.hits == 0
        assert len(cache) == 3

    def test_lru_eviction_bound(self):
        cache = WcdeCache(maxsize=2)
        pmf_a = Pmf.from_gaussian(30, 5, tau_max=80)
        pmf_b = Pmf.from_gaussian(50, 5, tau_max=120)
        pmf_c = Pmf.from_gaussian(70, 5, tau_max=160)
        cache.solve(pmf_a, 0.9, 0.7)
        cache.solve(pmf_b, 0.9, 0.7)
        cache.solve(pmf_a, 0.9, 0.7)      # refresh a; b is now LRU
        cache.solve(pmf_c, 0.9, 0.7)      # evicts b
        assert len(cache) == 2
        cache.solve(pmf_a, 0.9, 0.7)
        assert cache.hits == 2            # a stayed resident
        cache.solve(pmf_b, 0.9, 0.7)      # b was evicted: a miss
        assert cache.misses == 4

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ConfigurationError):
            WcdeCache(maxsize=0)
        with pytest.raises(ConfigurationError):
            WcdeCache(maxsize=-3)

    def test_clear_resets_entries_and_counters(self):
        cache = WcdeCache()
        pmf = Pmf.from_gaussian(40, 8, tau_max=100)
        cache.solve(pmf, 0.9, 0.7)
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (0, 0)

    @settings(max_examples=40, deadline=None)
    @given(pmfs, st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=0.0, max_value=1.5))
    def test_lazy_worst_pmf_matches_eager(self, pmf, theta, delta):
        lazy = solve_wcde(pmf, theta, delta, need_worst_pmf=False)
        eager = solve_wcde(pmf, theta, delta, need_worst_pmf=True)
        assert lazy.eta_bin == eager.eta_bin
        assert lazy.reference_quantile == eager.reference_quantile
        assert lazy.worst_kl == eager.worst_kl
        assert np.array_equal(lazy.worst_pmf.probs,
                              eager.worst_pmf.probs)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(pmfs, min_size=1, max_size=5),
           st.floats(min_value=0.05, max_value=0.999),
           st.floats(min_value=0.0, max_value=1.5))
    def test_eta_matches_linear_scan(self, drawn, theta, delta):
        """Every row of a multi-row batch — shortcut, narrow sweep and
        lockstep bisection side by side — agrees with the brute-force
        linear scan, code the solver shares nothing with."""
        rows = drawn + mixed_path_rows()
        solved = solve_wcde_batch(rows, theta, delta)
        assert [r.eta_bin for r in solved] == \
            [linear_scan_eta(pmf, theta, delta) for pmf in rows]


# ---------------------------------------------------------------------------
# A warm planner == the uncached planner, bit for bit
# ---------------------------------------------------------------------------

class TestIncrementalEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(job_sets, st.integers(min_value=2, max_value=24),
           st.floats(min_value=0.5, max_value=0.99),
           st.floats(min_value=0.0, max_value=1.2),
           st.lists(st.integers(min_value=0, max_value=5),
                    min_size=0, max_size=8))
    def test_bit_identical_under_churn(self, raw, capacity, theta, delta,
                                       churn):
        """A warm replan equals the uncached path after arbitrary churn.

        Each churn step replaces one job's estimate object (as a fresh DE
        report would) and bumps its elapsed/extra_demand; the planner
        reused across rounds must still reproduce the uncached planner
        exactly.
        """
        jobs = build_jobs(raw)
        cold = RushPlanner(capacity, theta=theta, delta=delta,
                           tolerance=0.05, wcde_cache_size=0)
        warm = RushPlanner(capacity, theta=theta, delta=delta, tolerance=0.05)

        assert plans_equal(cold.plan(jobs), warm.plan(jobs))

        for step, pick in enumerate(churn):
            idx = pick % len(jobs)
            old = jobs[idx]
            mutated = DemandEstimate(
                pmf=old.estimate.pmf,          # same content...
                bin_width=old.estimate.bin_width,
                container_runtime=old.estimate.container_runtime,
                sample_count=old.estimate.sample_count + 1)
            if step % 2:                        # ...or a shifted one
                probs = old.estimate.pmf.probs
                mutated = DemandEstimate(
                    pmf=Pmf(np.append(probs * 0.5, probs * 0.5)),
                    bin_width=old.estimate.bin_width,
                    container_runtime=old.estimate.container_runtime,
                    sample_count=old.estimate.sample_count + 1)
            jobs[idx] = PlannerJob(old.job_id, old.utility, mutated,
                                   elapsed=old.elapsed + step,
                                   extra_demand=old.extra_demand + 0.5)
            assert plans_equal(cold.plan(jobs), warm.plan(jobs))

    def test_bin_width_stays_outside_the_content_key(self):
        """Two jobs whose PMFs are bit-identical but whose bins are 1 and
        10 slots wide share one cache entry — the key is the distribution's
        content, theta and delta — and each eta is scaled by its own
        width afterwards: exactly 10x apart, each the uncached planner's."""
        pmf = Pmf.from_gaussian(40, 6, tau_max=120)
        jobs = [PlannerJob(f"w{width:g}", LinearUtility(2000.0, 1.0),
                           DemandEstimate(Pmf(pmf.probs), bin_width=width,
                                          container_runtime=5.0,
                                          sample_count=4))
                for width in (1.0, 10.0)]
        planner = RushPlanner(16)
        plan = planner.plan(jobs)
        assert (planner.wcde_cache.misses, planner.wcde_cache.hits) == (1, 1)
        assert len(planner.wcde_cache) == 1
        narrow, wide = (plan.jobs[job.job_id].robust_demand for job in jobs)
        assert wide == 10 * narrow
        uncached = RushPlanner(16, wcde_cache_size=0).plan(jobs)
        for job in jobs:
            assert (plan.jobs[job.job_id].robust_demand
                    == uncached.jobs[job.job_id].robust_demand)

    def test_the_onion_has_no_approximate_mode(self):
        """One onion — cold, certified, exact.  Nothing takes a warm start,
        nothing carries a hint, and the one keyword that survives (the
        perf ledger passes it) is the literal ``False``."""
        assert "warm_start" not in inspect.signature(solve_onion).parameters
        assert "warm_start" not in inspect.signature(
            RushPlanner.plan).parameters
        for record in (OnionResult, SchedulePlan, PlanStats):
            names = [f.name for f in dataclasses.fields(record)]
            assert not [n for n in names if "hint" in n or "warm" in n]
        assert not [n for n in repro.core.__all__ if "hint" in n.lower()]
        planner = RushPlanner(16)
        with pytest.raises(ConfigurationError, match="warm_start"):
            IncrementalPlanner(planner, warm_start=True)
        assert not hasattr(IncrementalPlanner(planner, warm_start=False),
                           "warm_start")

    def test_session_plan_equals_fresh_planner_plan(self):
        """A plan is a pure function of its snapshot: on the first round
        and on an unchanged replan (every job a cache hit), the warm
        planner's plan is the one the uncached planner makes for the
        same jobs — equal, probe for probe."""
        jobs = [PlannerJob(f"j{i}", SigmoidUtility(40.0 + 9 * i, 1.0 + i % 3,
                                                   beta=0.2),
                           DemandEstimate(
                               Pmf.from_gaussian(30 + 4 * i, 6, tau_max=120),
                               bin_width=1.0, container_runtime=5.0,
                               sample_count=4),
                           elapsed=float(i))
                for i in range(12)]
        session = RushPlanner(4, tolerance=0.05)
        for _ in range(2):
            planned = session.plan(jobs)
            fresh = RushPlanner(4, tolerance=0.05,
                                wcde_cache_size=0).plan(jobs)
            assert plans_equal(planned, fresh)
        assert planned.stats.wcde_cache_hits == len(jobs)


# ---------------------------------------------------------------------------
# RushScheduler dirty tracking
# ---------------------------------------------------------------------------

class _FakeSpec:
    def __init__(self, prior_runtime=8.0):
        self.prior_runtime = prior_runtime
        self.deadline = math.inf


class _FakeTask:
    def __init__(self, duration=6.0):
        self.duration = duration
        self.runtime_sample = duration
        self.executed = duration / 2


class _FakeJob:
    def __init__(self, job_id, pending=10, budget=300.0):
        self.job_id = job_id
        self.spec = _FakeSpec()
        self.utility = LinearUtility(budget, 1.0)
        self.arrival = 0
        self.pending_count = pending
        self.running_count = 0
        self._ages = []

    def elapsed(self, now):
        return now - self.arrival

    def running_task_ages(self, now):
        return list(self._ages)


class _FakeSim:
    def __init__(self, capacity=8):
        self.capacity = capacity
        self.now = 0
        self.active_jobs = []


def _scheduler_with_jobs(n=3, **kwargs):
    sched = RushScheduler(**kwargs)
    sim = _FakeSim()
    sched.bind(sim)
    for i in range(n):
        job = _FakeJob(f"j{i}")
        sim.active_jobs.append(job)
        sched.on_job_arrival(job)
    return sched, sim


class TestRushSchedulerInvalidation:
    def test_quiet_replan_reuses_every_estimate(self):
        sched, sim = _scheduler_with_jobs(3)
        sched._current_plan()
        assert sched.estimates_refreshed == 3
        sim.now += 1                           # epoch moves, no DE events
        sched._current_plan()
        assert sched.estimates_refreshed == 3
        assert sched.estimates_reused == 3

    def test_same_epoch_returns_cached_plan(self):
        sched, sim = _scheduler_with_jobs(2)
        first = sched._current_plan()
        assert sched._current_plan() is first
        assert sched.plans_computed == 1

    def test_task_completion_dirties_exactly_one_job(self):
        sched, sim = _scheduler_with_jobs(3)
        sched._current_plan()
        sched.on_task_complete(sim.active_jobs[1], _FakeTask())
        sim.active_jobs[1].pending_count -= 1
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 4      # 3 initial + the dirty one
        assert sched.estimates_reused == 2

    def test_task_failure_dirties_the_job(self):
        sched, sim = _scheduler_with_jobs(2)
        sched._current_plan()
        sched.on_task_failed(sim.active_jobs[0], _FakeTask())
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 3
        assert sched.estimates_reused == 1

    def test_task_launch_dirties_the_job(self):
        sched, sim = _scheduler_with_jobs(2)
        sched._current_plan()
        job = sim.active_jobs[0]
        sched.on_task_launched(job, _FakeTask())
        job.pending_count -= 1
        job.running_count += 1
        job._ages.append(0)
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 3
        assert sched.estimates_reused == 1

    def test_arrival_and_departure_manage_cache_entries(self):
        sched, sim = _scheduler_with_jobs(2)
        sched._current_plan()
        newcomer = _FakeJob("late")
        sim.active_jobs.append(newcomer)
        sched.on_job_arrival(newcomer)
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 3      # only the newcomer
        assert sched.estimates_reused == 2

        done = sim.active_jobs.pop(0)
        sched.on_job_complete(done)
        assert done.job_id not in sched._estimates
        assert done.job_id not in sched._estimators
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 3      # nobody recomputed
        assert sched.estimates_reused == 4

    def test_pending_drift_without_hook_still_refreshes(self):
        """The belt-and-braces pending-count guard catches missed events."""
        sched, sim = _scheduler_with_jobs(1)
        sched._current_plan()
        sim.active_jobs[0].pending_count -= 2      # no hook fired
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_refreshed == 2

    def test_running_age_drift_replans_without_refreshing(self):
        """extra_demand drifts every slot but stays outside the memo."""
        sched, sim = _scheduler_with_jobs(1)
        job = sim.active_jobs[0]
        job.running_count = 1
        job._ages = [0]
        first = sched._current_plan()
        job._ages = [5]
        sim.now += 5
        second = sched._current_plan()
        assert sched.plans_computed == 2
        assert sched.estimates_reused == 1         # estimate memo held...
        jid = job.job_id
        assert second.jobs[jid].robust_demand < first.jobs[jid].robust_demand

    def test_non_incremental_mode_never_reuses(self):
        sched, sim = _scheduler_with_jobs(2, incremental=False)
        sched._current_plan()
        sim.now += 1
        sched._current_plan()
        assert sched.estimates_reused == 0
        assert sched.estimates_refreshed == 4
        # Four fresh estimate objects of one distribution: the content
        # cache still pays a single bisection.
        assert sched.profile()["wcde_cache_misses"] == 1

    def test_profile_reports_all_counters(self):
        sched, sim = _scheduler_with_jobs(2)
        sched._current_plan()
        profile = sched.profile()
        for key in ("plans_computed", "planner_seconds", "wcde_seconds",
                    "onion_seconds", "mapping_seconds", "estimates_refreshed",
                    "estimates_reused", "wcde_cache_hits", "wcde_cache_misses",
                    "wcde_cache_hit_rate", "peels", "feasibility_checks"):
            assert key in profile
        assert profile["plans_computed"] == 1
        assert profile["peels"] >= 1
        assert profile["feasibility_checks"] >= 1
