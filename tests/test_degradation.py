"""Tests for the planner degradation ladder and injected solver faults."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSimulator, JobSpec, run_simulation
from repro.core.degradation import LADDER, check_fault_depth
from repro.core.planner import RushPlanner
from repro.errors import (ConfigurationError, InfeasiblePlanError,
                          SolverBudgetError)
from repro.faults import FaultPlan, SolverBudgetInjector
from repro.schedulers import EdfScheduler, RushScheduler
from repro.utility import LinearUtility


def spec(job_id="j", durations=(3, 3), arrival=0, budget=100.0):
    return JobSpec(job_id=job_id, arrival=arrival,
                   task_durations=tuple(durations),
                   utility=LinearUtility(budget, 1.0), budget=budget)


def fail_planner(monkeypatch, exc):
    def fail(planner, jobs):
        raise exc
    monkeypatch.setattr(RushPlanner, "plan", fail)


def step_until_degraded(sim, scheduler):
    for _ in range(20):  # the next round fires when a container frees
        sim.step()
        if scheduler.degradation_counts:
            return
    raise AssertionError("no planning round degraded")


class TestLadder:
    def test_ladder_order(self):
        assert LADDER == ("primary", "last_good", "greedy_edf")

    @pytest.mark.parametrize("depth", [1, 2])
    def test_fault_depth_spans_the_rungs_above_the_floor(self, depth):
        assert check_fault_depth(depth) == depth

    @pytest.mark.parametrize("depth", [0, 3, 4, -1, True, 1.5, "1", None])
    def test_fault_depth_outside_the_ladder_is_refused(self, depth):
        with pytest.raises(ConfigurationError, match=r"\[1, 2\]"):
            check_fault_depth(depth)


class TestDegradationPolicy:
    """The ladder policy as RushScheduler walks it, one round at a time."""

    def test_primary_success_counts_nothing(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec())
        sim.step()
        plan = scheduler.last_plan
        assert plan is not None
        assert plan.stats.fallback == ""
        assert scheduler.degradation_counts == {}
        assert sim.fault_log.last_degradation is None

    def test_fallback_to_second_attempt(self, monkeypatch):
        # The rung below a failed primary: the last good plan.
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec(durations=(4, 4, 4)))
        sim.step()
        stale = scheduler.last_plan
        assert stale is not None
        fail_planner(monkeypatch, SolverBudgetError("nope"))
        step_until_degraded(sim, scheduler)
        assert scheduler.last_plan is stale
        assert stale.stats.fallback == "last_good"
        assert scheduler.degradation_counts == {"last_good": 1}
        event = sim.fault_log.last_degradation
        assert event.detail["errors"] == ["primary: nope"]


class TestRushSchedulerDegradation:
    def _run(self, scheduler, n_jobs=3, **kw):
        specs = [spec(job_id=f"j{k}", arrival=k) for k in range(n_jobs)]
        return run_simulation(specs, 2, scheduler, max_slots=2000, **kw)

    def test_clean_run_never_degrades(self):
        # A clean run must not touch the ladder: only an injected fault
        # or an infeasible plan walks it.
        scheduler = RushScheduler()
        result = self._run(scheduler)
        assert result.fallbacks == {}
        assert scheduler.profile()["fallbacks"] == 0
        assert scheduler.last_plan.stats.fallback == ""
        assert result.completed_count == 3

    def test_real_planner_failure_serves_last_good(self, monkeypatch):
        # Not an injected fault: the planner itself raises.
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec(durations=(4, 4, 4)))
        sim.step()  # healthy round builds a last-good plan
        good = scheduler.last_plan
        assert good is not None and good.stats.fallback == ""
        fail_planner(monkeypatch, InfeasiblePlanError("broken"))
        step_until_degraded(sim, scheduler)
        assert scheduler.degradation_counts == {"last_good": 1}
        assert scheduler.last_plan is good
        assert good.stats.fallback == "last_good"
        event = sim.fault_log.last_degradation
        assert event.kind == "degradation:last_good"
        assert event.detail["errors"] == ["primary: broken"]

    def test_planner_failure_with_no_plan_lands_on_floor(self, monkeypatch):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec())
        fail_planner(monkeypatch, InfeasiblePlanError("starved"))
        sim.step()
        assert scheduler.degradation_counts == {"greedy_edf": 1}
        assert scheduler.last_plan is None
        assert sim.job("j").running_count > 0  # the floor still granted
        event = sim.fault_log.last_degradation
        assert event.kind == "degradation:greedy_edf"
        assert event.detail["errors"] == ["primary: starved"]

    def test_non_repro_planner_errors_propagate(self, monkeypatch):
        # A genuine bug is not a planning failure: the ladder lets it out.
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec())
        fail_planner(monkeypatch, ValueError("genuine bug"))
        with pytest.raises(ValueError, match="genuine bug"):
            sim.step()
        assert scheduler.degradation_counts == {}

    def test_forced_depth_one_with_no_plan_hits_floor(self):
        # The first round has no last good plan to fall back to.
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec())
        scheduler.inject_solver_fault(1)
        sim.step()
        assert scheduler.degradation_counts == {"greedy_edf": 1}
        assert scheduler.last_plan is None

    def test_forced_depth_one_reuses_last_good(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec(durations=(4, 4, 4)))
        sim.step()  # healthy round builds a last-good plan
        good = scheduler.last_plan
        assert good is not None
        scheduler.inject_solver_fault(1)
        step_until_degraded(sim, scheduler)
        assert scheduler.degradation_counts == {"last_good": 1}
        assert scheduler.last_plan is good
        assert good.stats.fallback == "last_good"

    def test_forced_depth_two_hits_greedy_floor(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec(durations=(4, 4, 4)))
        sim.step()
        scheduler.inject_solver_fault(2)
        step_until_degraded(sim, scheduler)
        assert scheduler.degradation_counts.get("greedy_edf", 0) == 1
        assert scheduler.last_plan is None
        # the cluster stayed live: the freed container was still granted
        assert sim.job("j").running_count > 0

    def test_degradation_recorded_in_fault_log(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec(durations=(4, 4, 4)))
        sim.step()
        scheduler.inject_solver_fault(1)
        step_until_degraded(sim, scheduler)
        kinds = sim.fault_log.counts_by_kind()
        assert kinds.get("degradation:last_good", 0) == 1
        event = [e for e in sim.fault_log
                 if e.kind == "degradation:last_good"][0]
        assert event.target == "planner"
        assert any("injected solver fault" in err
                   for err in event.detail["errors"])

    @pytest.mark.parametrize("depth", [0, 3, 4, True, 1.5])
    def test_scheduler_refuses_a_depth_outside_the_ladder(self, depth):
        scheduler = RushScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.inject_solver_fault(depth)
        ClusterSimulator(2, scheduler, seed=0).step()
        assert scheduler.degradation_counts == {}  # nothing was armed

    def test_greedy_floor_matches_edf_order(self):
        # With the ladder forced to the floor, RUSH's grants collapse to
        # EDF's for that scheduling round.
        specs = [spec(job_id=f"j{k}", arrival=0, budget=20.0 + k)
                 for k in range(3)]
        scheduler = RushScheduler()
        sim = ClusterSimulator(1, scheduler, seed=0)
        for s in specs:
            sim.submit(s)
        scheduler.inject_solver_fault(2)
        sim.step()
        granted = [j.job_id for j in sim.active_jobs if j.running_count > 0]
        edf = EdfScheduler()
        sim2 = ClusterSimulator(1, edf, seed=0)
        for s in specs:
            sim2.submit(spec(job_id=s.job_id, arrival=0, budget=s.budget))
        sim2.step()
        granted2 = [j.job_id for j in sim2.active_jobs
                    if j.running_count > 0]
        assert granted == granted2

    def test_solver_budget_injector_exercises_ladder_in_sim(self):
        scheduler = RushScheduler()
        specs = [spec(job_id=f"j{k}", arrival=k, durations=(3, 3))
                 for k in range(3)]
        result = run_simulation(
            specs, 2, scheduler, max_slots=2000,
            faults=FaultPlan([SolverBudgetInjector(rate=0.5, depth=1)],
                             seed=3))
        assert result.fault_count("solver_budget") > 0
        assert result.fallbacks.get("last_good", 0) > 0
        assert result.completed_count == 3

    def test_profile_reports_fallbacks(self):
        scheduler = RushScheduler()
        sim = ClusterSimulator(2, scheduler, seed=0)
        sim.submit(spec())
        scheduler.inject_solver_fault(1)
        sim.step()
        assert scheduler.profile()["fallbacks"] == 1
