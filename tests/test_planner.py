"""Tests for the end-to-end RushPlanner (WCDE -> onion -> mapping)."""

from __future__ import annotations

import math
from unittest import mock

import pytest

from repro.errors import ConfigurationError
from repro.core.mapping import MappingJob, Segment, map_time_slots
from repro.core.onion import JobTarget, OnionJob, solve_onion
from repro.core.planner import JobPlan, PlannerJob, RushPlanner
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


def fleet(count: int) -> list:
    """A mixed fleet, some jobs in flight, sharing a few targets."""
    classes = [lambda k: SigmoidUtility(60.0 + 3 * k, 1.0 + k % 3, beta=0.1),
               lambda k: LinearUtility(80.0 + k, 1.0 + k % 2),
               lambda k: ConstantUtility(1.0 + k % 4)]
    return [PlannerJob(f"j{k:03d}", classes[k % 3](k),
                       estimate(20.0 + k % 17, 2.0 + k % 5,
                                runtime=2.0 + k % 4),
                       elapsed=float(k % 7), extra_demand=float(k % 3))
            for k in range(count)]


class TestColumnarRound:
    """A round hands the onion and the mapping columns, not records."""

    def test_a_round_builds_no_onion_or_mapping_job(self):
        jobs = fleet(200)
        calls = []
        real = {cls: cls.__post_init__ for cls in (OnionJob, MappingJob)}

        def counting(cls):
            def post_init(record):
                calls.append(cls.__name__)
                real[cls](record)
            return post_init

        with mock.patch.object(OnionJob, "__post_init__",
                               counting(OnionJob)), \
                mock.patch.object(MappingJob, "__post_init__",
                                  counting(MappingJob)):
            plan = RushPlanner(16, tolerance=0.05).plan(jobs)
            assert not calls
            OnionJob("probe", 1.0, ConstantUtility(1.0))
            assert calls == ["OnionJob"]
        assert len(plan.jobs) == 200

    def test_the_columns_equal_the_record_front_doors(self):
        """The same round through ``OnionJob`` and ``MappingJob`` records,
        tie-breaks computed for every job: the same targets and the same
        container plan, segment for segment."""
        jobs = fleet(120)
        planner = RushPlanner(12, tolerance=0.05)
        plan = planner.plan(jobs)
        demands = {job_id: decided.robust_demand
                   for job_id, decided in plan.jobs.items()}
        onion = solve_onion(
            [OnionJob(job.job_id, demands[job.job_id], job.utility,
                      job.elapsed, job.estimate.container_runtime)
             for job in jobs],
            12, tolerance=0.05, horizon=plan.horizon)
        mapping_jobs = []
        for job in jobs:
            target = onion.targets[job.job_id].target_completion
            runtime = job.estimate.container_runtime
            earlier = max(target - runtime, 0.0)
            mapping_jobs.append(MappingJob(
                job.job_id, demands[job.job_id], runtime, target,
                job.utility.value(job.elapsed + earlier)
                - job.utility.value(job.elapsed + target)))
        mapped = map_time_slots(mapping_jobs, 12)
        for job in jobs:
            decided, target = plan.jobs[job.job_id], onion.targets[job.job_id]
            assert (decided.target_completion, decided.predicted_utility,
                    decided.layer, decided.achievable) == (
                target.target_completion, target.utility_value,
                target.layer, target.achievable)
        assert plan.container_plan.segments == mapped.segments
        assert list(plan.container_plan.completions.items()) == list(
            mapped.completions.items())
        assert plan.feasibility_checks == onion.feasibility_checks

    @pytest.mark.parametrize("change, record", [
        (dict(elapsed=-1.0), dict(elapsed=-1.0)),
        (dict(extra_demand=math.nan), dict(demand=math.nan)),
        (dict(extra_demand=math.inf), dict(demand=math.inf)),
    ], ids=["elapsed", "nan-demand", "inf-demand"])
    def test_bad_columns_raise_the_record_message(self, change, record):
        jobs = fleet(5)
        jobs[3] = jobs[3]._replace(**change)
        jobs[4] = jobs[4]._replace(elapsed=-2.0)
        fields = dict(job_id=jobs[3].job_id, demand=1.0,
                      utility=jobs[3].utility)
        fields.update(record)
        with pytest.raises(ConfigurationError) as expected:
            OnionJob(**fields)
        with pytest.raises(ConfigurationError) as got:
            RushPlanner(4).plan(jobs)
        assert str(got.value) == str(expected.value)

    def test_records_keep_the_dataclass_reprs(self):
        assert repr(JobTarget("a", 3, 0.5, 2, True)) == (
            "JobTarget(job_id='a', target_completion=3, utility_value=0.5, "
            "layer=2, achievable=True)")
        assert repr(Segment("a", 1, 0.0, 2, 1.5)) == (
            "Segment(job_id='a', queue=1, start=0.0, tasks=2, runtime=1.5)")
        assert Segment("a", 1, 0.5, 2, 1.5).end == 3.5
        assert repr(JobPlan("a", 1.0, 2.0, 3, 4.0, 0.5, True, 1, 7)) == (
            "JobPlan(job_id='a', robust_demand=1.0, reference_demand=2.0, "
            "target_completion=3, planned_completion=4.0, "
            "predicted_utility=0.5, achievable=True, layer=1, "
            "wcde_iterations=7)")
        job = PlannerJob("a", ConstantUtility(1.0), estimate(5, 1))
        assert (job.elapsed, job.delta, job.extra_demand) == (0.0, None, 0.0)
        assert repr(job).startswith("PlannerJob(job_id='a', utility=")
