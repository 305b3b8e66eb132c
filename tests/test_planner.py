"""Tests for the end-to-end RushPlanner (WCDE -> onion -> mapping)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigurationError
from repro.core.planner import PlannerJob, RushPlanner
from repro.estimation import DemandEstimate, GaussianEstimator, MeanTimeEstimator, Pmf
from repro.utility import ConstantUtility, LinearUtility, SigmoidUtility


def estimate(mean: float, std: float, runtime: float = 5.0) -> DemandEstimate:
    pmf = Pmf.from_gaussian(mean, std)
    return DemandEstimate(pmf=pmf, bin_width=1.0, container_runtime=runtime,
                          sample_count=50)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            RushPlanner(0)
        with pytest.raises(ConfigurationError):
            RushPlanner(4, theta=1.5)
        with pytest.raises(ConfigurationError):
            RushPlanner(4, delta=-1)
        with pytest.raises(ConfigurationError):
            RushPlanner(4, tolerance=0)

    @pytest.mark.parametrize("option", ["theta", "delta", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameters_are_refused(self, option, value):
        """NaN fails every comparison, so a range check must be written to
        reject it; an infinite delta or tolerance is no setting either."""
        with pytest.raises(ConfigurationError, match=option):
            RushPlanner(4, **{option: value})

    def test_duplicate_ids(self):
        planner = RushPlanner(4)
        job = PlannerJob("x", LinearUtility(50, 1), estimate(20, 3))
        with pytest.raises(ConfigurationError):
            planner.plan([job, job])


class TestRobustDemand:
    def test_eta_at_least_reference(self):
        planner = RushPlanner(4, theta=0.9, delta=0.7)
        eta, ref, iters = planner.robust_demand(estimate(100, 15))
        assert eta >= ref
        assert iters >= 1

    def test_delta_zero_equals_reference(self):
        planner = RushPlanner(4, theta=0.9, delta=0.0)
        eta, ref, _ = planner.robust_demand(estimate(100, 15))
        assert eta == ref

    def test_per_job_delta_override(self):
        planner = RushPlanner(4, theta=0.9, delta=0.0)
        est = estimate(100, 15)
        base, _, _ = planner.robust_demand(est)
        robust, _, _ = planner.robust_demand(est, delta=2.0)
        assert robust > base

    def test_bin_width_respected(self):
        planner = RushPlanner(4, theta=0.9, delta=0.0)
        pmf = Pmf.from_gaussian(100, 15)
        wide = DemandEstimate(pmf=pmf, bin_width=10.0, container_runtime=5.0,
                              sample_count=10)
        eta, _, _ = planner.robust_demand(wide)
        assert eta == pytest.approx(10.0 * pmf.quantile(0.9))


class TestPlan:
    def test_empty_plan(self):
        plan = RushPlanner(4).plan([])
        assert plan.jobs == {}
        assert plan.next_slot_allocation() == {}
        assert plan.utility_vector() == []

    def test_single_job_plan(self):
        planner = RushPlanner(8, theta=0.9, delta=0.5)
        job = PlannerJob("solo", LinearUtility(200, 5), estimate(100, 10))
        plan = planner.plan([job])
        jp = plan.jobs["solo"]
        assert jp.robust_demand >= jp.reference_demand
        assert jp.target_completion >= 1
        assert jp.achievable
        assert plan.solve_seconds >= 0
        # the mapping respects Theorem 3 for a feasible single job
        assert jp.planned_completion <= jp.target_completion + 5.0 + 1e-9

    def test_next_slot_allocation_covers_capacity(self):
        planner = RushPlanner(4, theta=0.9, delta=0.2)
        jobs = [
            PlannerJob("a", LinearUtility(100, 2), estimate(60, 6)),
            PlannerJob("b", LinearUtility(120, 1), estimate(40, 5)),
        ]
        plan = planner.plan(jobs)
        allocation = plan.next_slot_allocation()
        assert sum(allocation.values()) <= 4
        assert sum(allocation.values()) >= 1

    def test_impossible_job_reported(self):
        """A job that cannot reach positive utility shows as a red row."""
        planner = RushPlanner(2, theta=0.9, delta=0.2)
        jobs = [
            PlannerJob("doomed", LinearUtility(5, 1), estimate(200, 10),
                       elapsed=50.0),
            PlannerJob("fine", ConstantUtility(1), estimate(20, 4)),
        ]
        plan = planner.plan(jobs)
        assert "doomed" in plan.impossible_jobs()
        assert "fine" not in plan.impossible_jobs()

    def test_elapsed_propagates(self):
        est = estimate(100, 10)
        fresh = RushPlanner(4, delta=0.0).plan(
            [PlannerJob("a", LinearUtility(100, 1), est)])
        aged = RushPlanner(4, delta=0.0).plan(
            [PlannerJob("a", LinearUtility(100, 1), est, elapsed=50.0)])
        assert (aged.jobs["a"].predicted_utility
                <= fresh.jobs["a"].predicted_utility)

    def test_explicit_horizon(self):
        planner = RushPlanner(4, delta=0.0)
        job = PlannerJob("a", ConstantUtility(1), estimate(40, 5))
        plan = planner.plan([job], horizon=500)
        assert plan.horizon == 500
        assert plan.jobs["a"].target_completion <= 500

    def test_utility_vector_sorted(self):
        planner = RushPlanner(4, theta=0.9, delta=0.3)
        jobs = [
            PlannerJob("a", SigmoidUtility(80, 5, beta=0.5), estimate(60, 6)),
            PlannerJob("b", SigmoidUtility(100, 2, beta=0.05), estimate(50, 5)),
            PlannerJob("c", ConstantUtility(3), estimate(30, 4)),
        ]
        vec = planner.plan(jobs).utility_vector()
        assert vec == sorted(vec)


class TestFeedbackCycleConsistency:
    def test_plan_stable_under_replan(self):
        """Re-planning the identical snapshot yields identical decisions."""
        planner = RushPlanner(6, theta=0.9, delta=0.5)
        de = GaussianEstimator(prior_mean=10, prior_std=2)
        jobs = [
            PlannerJob("a", LinearUtility(100, 2), de.estimate(12)),
            PlannerJob("b", SigmoidUtility(90, 3, beta=0.1), de.estimate(8)),
        ]
        p1 = planner.plan(jobs)
        p2 = planner.plan(jobs)
        for jid in ("a", "b"):
            assert p1.jobs[jid].target_completion == p2.jobs[jid].target_completion
            assert p1.jobs[jid].robust_demand == p2.jobs[jid].robust_demand

    def test_shrinking_demand_never_hurts_single_job(self):
        """As work completes (pending drops), the target moves earlier."""
        planner = RushPlanner(4, theta=0.9, delta=0.3)
        de = MeanTimeEstimator(prior_runtime=10.0)
        utility = LinearUtility(300, 2)
        targets = []
        for pending in (40, 30, 20, 10):
            plan = planner.plan(
                [PlannerJob("a", utility, de.estimate(pending))])
            targets.append(plan.jobs["a"].target_completion)
        assert targets == sorted(targets, reverse=True)
