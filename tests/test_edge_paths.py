"""Edge-path tests: code paths the mainline suites do not reach."""

from __future__ import annotations

import math

import pytest

from repro import (
    GaussianEstimator,
    JobSpec,
    PlannerJob,
    RushPlanner,
    RushScheduler,
    run_simulation,
)
from repro.core.onion import OnionJob, solve_onion
from repro.estimation import DemandEstimate, MeanTimeEstimator, Pmf
from repro.utility import LinearUtility, PiecewiseUtility


class TestOnionWithCustomUtilityClass:
    """PiecewiseUtility is not in the vectorized deadline bank: the
    scalar fallback path must produce the same kind of answers."""

    def test_piecewise_job_scheduled(self):
        jobs = [
            OnionJob("tiered", 10.0,
                     PiecewiseUtility([(0, 10), (10, 10), (20, 0)])),
            OnionJob("linear", 10.0, LinearUtility(15.0, 2.0)),
        ]
        result = solve_onion(jobs, 2, tolerance=1e-3, horizon=40)
        assert result.targets["tiered"].target_completion <= 20
        assert result.targets["tiered"].utility_value > 0

    def test_mixed_bank_and_scalar_consistent(self):
        """A piecewise utility equivalent to a linear one behaves alike."""
        linear = LinearUtility(10.0, 0.0, beta=1.0)
        piecewise = PiecewiseUtility([(0.0, 10.0), (10.0, 0.0)])
        r1 = solve_onion([OnionJob("x", 8.0, linear)], 2,
                         tolerance=1e-4, horizon=20)
        r2 = solve_onion([OnionJob("x", 8.0, piecewise)], 2,
                         tolerance=1e-4, horizon=20)
        assert (r1.targets["x"].target_completion
                == r2.targets["x"].target_completion)


class TestCoarseBinWidthThroughPlanner:
    def test_eta_scales_with_bin_width(self):
        pmf = Pmf.from_gaussian(100, 10, tau_max=200)
        fine = DemandEstimate(pmf=pmf, bin_width=1.0, container_runtime=5.0,
                              sample_count=10)
        coarse = DemandEstimate(pmf=pmf, bin_width=7.0, container_runtime=5.0,
                                sample_count=10)
        planner = RushPlanner(16, theta=0.9, delta=0.5)
        eta_fine, _, _ = planner.robust_demand(fine)
        eta_coarse, _, _ = planner.robust_demand(coarse)
        assert eta_coarse == pytest.approx(7.0 * eta_fine)

    def test_huge_demand_is_coarsened_automatically(self):
        de = MeanTimeEstimator(prior_runtime=1.0)
        estimate = de.estimate(pending_tasks=10_000_000)
        assert estimate.bin_width > 1.0
        planner = RushPlanner(1000, theta=0.9, delta=0.3)
        eta, _, _ = planner.robust_demand(estimate)
        assert eta == pytest.approx(1e7, rel=0.01)


class TestAlternativeEstimatorsInScheduler:
    def test_ewma_estimator_factory(self):
        """The ``estimator_factory`` seam: the scheduler builds each
        job's DE unit through it, with the job's spec in hand.  (The
        name predates the EWMA estimator's retirement; the seam it pins
        is the factory, here with the paper's mean-impulse DE.)"""
        specs = [JobSpec(job_id="j", arrival=0, task_durations=(3,) * 6,
                         utility=LinearUtility(40.0, 1.0), budget=40.0,
                         prior_runtime=3.0)]
        built = []

        def factory(spec):
            built.append(spec.job_id)
            return MeanTimeEstimator(prior_runtime=spec.prior_runtime)

        scheduler = RushScheduler(estimator_factory=factory)
        result = run_simulation(specs, 2, scheduler)
        assert result.completed_count == 1
        assert built == ["j"]

    def test_default_prior_used_when_spec_has_none(self):
        """A job that ships no runtime prior plans exactly as if it had
        shipped the constant 10-slot one."""
        def first_demand(prior):
            spec = JobSpec(job_id="j", arrival=0, task_durations=(3, 3),
                           utility=LinearUtility(40.0, 1.0), budget=40.0,
                           prior_runtime=prior)
            scheduler = RushScheduler()
            run_simulation([spec], 1, scheduler, max_slots=1)
            return scheduler.last_plan.jobs["j"].robust_demand

        assert first_demand(None) == first_demand(10.0) != first_demand(42.0)


class TestPlannerEdgeInputs:
    def test_all_jobs_zero_pending(self):
        de = MeanTimeEstimator(prior_runtime=5.0)
        planner = RushPlanner(4)
        plan = planner.plan([
            PlannerJob("done-a", LinearUtility(10, 1), de.estimate(0)),
            PlannerJob("done-b", LinearUtility(20, 1), de.estimate(0),
                       elapsed=5.0),
        ])
        assert plan.jobs["done-a"].target_completion == 0
        assert plan.jobs["done-b"].robust_demand == 0.0
        assert plan.next_slot_allocation() == {}

    def test_extra_demand_increases_eta(self):
        de = MeanTimeEstimator(prior_runtime=5.0)
        planner = RushPlanner(4, delta=0.0)
        base = planner.plan([PlannerJob("j", LinearUtility(100, 1),
                                        de.estimate(4))])
        loaded = planner.plan([PlannerJob("j", LinearUtility(100, 1),
                                          de.estimate(4), extra_demand=15.0)])
        assert loaded.jobs["j"].robust_demand == pytest.approx(
            base.jobs["j"].robust_demand + 15.0)

    def test_negative_extra_demand_clamped(self):
        de = MeanTimeEstimator(prior_runtime=5.0)
        planner = RushPlanner(4, delta=0.0)
        plan = planner.plan([PlannerJob("j", LinearUtility(100, 1),
                                        de.estimate(4), extra_demand=-99.0)])
        assert plan.jobs["j"].robust_demand >= 0.0
