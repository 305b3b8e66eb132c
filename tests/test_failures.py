"""Tests for task-failure injection and failure-aware estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import EstimationError, SimulationError
from repro.cluster import ClusterSimulator, JobSpec, SimJob, Task, TaskState, run_simulation
from repro.estimation import (
    FailureAwareEstimator,
    GaussianEstimator,
    MeanTimeEstimator,
)
from repro.schedulers import FifoScheduler, RushScheduler
from repro.utility import LinearUtility


def spec(job_id="j", durations=(3, 3), failure_prob=0.0, **kw):
    return JobSpec(job_id=job_id, arrival=kw.pop("arrival", 0),
                   task_durations=tuple(durations),
                   utility=LinearUtility(kw.pop("budget", 100.0), 1.0),
                   budget=100.0, failure_prob=failure_prob, **kw)


class TestTaskFailure:
    def test_fail_after_triggers(self):
        task = Task("t", "j", duration=5, fail_after=2)
        task.launch(0)
        assert not task.advance(0)
        assert task.advance(1)
        assert task.state is TaskState.FAILED
        assert task.executed == 2
        assert task.finish_time == 2

    def test_fail_after_validation(self):
        with pytest.raises(SimulationError):
            Task("t", "j", duration=5, fail_after=0)

    def test_retry_produces_fresh_attempt(self):
        task = Task("t", "j", duration=4, fail_after=1)
        task.launch(0)
        task.advance(0)
        retry = task.retry()
        assert retry.state is TaskState.PENDING
        assert retry.duration == 4
        assert retry.attempt == 1
        assert retry.task_id == "t#1"
        assert retry.fail_after is None

    def test_retry_of_healthy_task_rejected(self):
        task = Task("t", "j", duration=2)
        with pytest.raises(SimulationError):
            task.retry()

    def test_retry_chain_ids(self):
        task = Task("t", "j", duration=3, fail_after=1)
        task.launch(0)
        task.advance(0)
        second = task.retry()
        second.fail_after = 1
        second.launch(1)
        second.advance(1)
        third = second.retry()
        assert third.task_id == "t#2"
        assert third.attempt == 2


class TestSimJobFailureBookkeeping:
    def test_failed_attempt_requeues(self):
        job = SimJob(spec(durations=(4,), failure_prob=0.5))
        task = job.next_pending()
        task.fail_after = 1
        task.launch(0)
        job.note_launched()
        task.advance(0)
        job.note_failed(task)
        assert job.failed_count == 1
        assert job.pending_count == 1  # the retry
        assert not job.is_complete
        retry = job.next_pending()
        assert retry.attempt == 1

    def test_complete_despite_failures(self):
        job = SimJob(spec(durations=(2,)))
        task = job.next_pending()
        task.fail_after = 1
        task.launch(0)
        job.note_launched()
        task.advance(0)
        job.note_failed(task)
        retry = job.next_pending()
        retry.launch(1)
        job.note_launched()
        retry.advance(1), retry.advance(2)
        job.note_completed(retry)
        assert job.is_complete
        assert job.completion_time == 3


class TestSimulatorFailureInjection:
    def test_zero_probability_never_fails(self):
        result = run_simulation([spec(durations=(3,) * 10)], 2,
                                FifoScheduler(), seed=1)
        assert result.task_failures == 0

    def test_failures_occur_and_jobs_still_finish(self):
        result = run_simulation(
            [spec(durations=(3,) * 20, failure_prob=0.3)], 2,
            FifoScheduler(), seed=1)
        assert result.task_failures > 0
        assert result.completed_count == 1

    def test_failures_extend_runtime(self):
        clean = run_simulation([spec(durations=(4,) * 10)], 2,
                               FifoScheduler(), seed=3)
        flaky = run_simulation(
            [spec(durations=(4,) * 10, failure_prob=0.4)], 2,
            FifoScheduler(), seed=3)
        assert flaky.records[0].runtime > clean.records[0].runtime

    def test_failure_injection_deterministic_per_seed(self):
        specs = [spec(durations=(3,) * 15, failure_prob=0.3)]
        r1 = run_simulation(specs, 2, FifoScheduler(), seed=7)
        r2 = run_simulation(specs, 2, FifoScheduler(), seed=7)
        assert r1.task_failures == r2.task_failures
        assert r1.records[0].runtime == r2.records[0].runtime

    def test_rush_handles_failures(self):
        specs = [spec(job_id=f"j{i}", durations=(3,) * 6, failure_prob=0.2,
                      prior_runtime=3.0) for i in range(3)]
        result = run_simulation(specs, 3, RushScheduler(), seed=5)
        assert result.completed_count == 3

    def test_bad_failure_prob_rejected(self):
        with pytest.raises(Exception):
            spec(failure_prob=1.0)


class TestFailureAwareEstimator:
    def make(self, **kw):
        return FailureAwareEstimator(MeanTimeEstimator(prior_runtime=10.0), **kw)

    def test_validation(self):
        base = MeanTimeEstimator(prior_runtime=10.0)
        with pytest.raises(EstimationError):
            FailureAwareEstimator(base, prior_failures=-1)
        with pytest.raises(EstimationError):
            FailureAwareEstimator(base, prior_failures=20, prior_attempts=10)
        with pytest.raises(EstimationError):
            FailureAwareEstimator(base, max_failure_rate=1.5)
        with pytest.raises(EstimationError):
            self.make().observe_failure(-1.0)

    def test_prior_rate(self):
        de = self.make(prior_failures=0.5, prior_attempts=10.0)
        assert de.failure_rate() == pytest.approx(0.05)

    def test_rate_learns_from_failures(self):
        de = self.make()
        for _ in range(10):
            de.observe(10.0)
        low = de.failure_rate()
        for _ in range(10):
            de.observe_failure(4.0)
        assert de.failure_rate() > low

    def test_rate_clamped(self):
        de = self.make(max_failure_rate=0.8)
        for _ in range(500):
            de.observe_failure(5.0)
        assert de.failure_rate() == 0.8

    def test_multiplier_inflates_demand(self):
        clean = MeanTimeEstimator(prior_runtime=10.0).estimate(10)
        de = self.make()
        for _ in range(5):
            de.observe(10.0)
        for _ in range(5):
            de.observe_failure(5.0)
        flaky = de.estimate(10)
        assert flaky.mean_demand() > clean.mean_demand()
        # rate = (5 + .5)/(5 + 5 + 10) = 0.275; wasted fraction 0.5
        expected = 1.0 + 0.5 * 0.275 / 0.725
        assert flaky.mean_demand() / clean.mean_demand() == pytest.approx(
            expected, rel=1e-6)

    def test_wasted_fraction_defaults_to_half(self):
        de = self.make()
        assert de.mean_wasted_fraction(10.0) == 0.5

    def test_wasted_fraction_observed(self):
        de = self.make()
        de.observe_failure(2.0)
        de.observe_failure(4.0)
        assert de.mean_wasted_fraction(10.0) == pytest.approx(0.3)

    def test_completions_flow_to_base(self):
        base = GaussianEstimator(min_samples=2)
        de = FailureAwareEstimator(base)
        de.observe(10.0)
        de.observe(14.0)
        assert base.sample_count == 2
        est = de.estimate(5)
        assert est.container_runtime == pytest.approx(12.0)

    def test_zero_pending_passthrough(self):
        de = self.make()
        assert de.estimate(0).mean_demand() == 0.0


class TestEndToEndFailureRobustness:
    def test_failure_aware_rush_covers_flaky_demand(self):
        """A failure-aware DE keeps coverage under 20% task failures."""
        from repro import RushPlanner

        rng = np.random.default_rng(11)
        planner = RushPlanner(capacity=8, theta=0.9, delta=0.7)
        covered_naive = covered_aware = 0
        trials = 30
        for _ in range(trials):
            naive = GaussianEstimator(min_samples=2)
            aware = FailureAwareEstimator(GaussianEstimator(min_samples=2))
            # warm both with 30 completions; the aware one also sees failures
            runtimes = rng.normal(10, 2, size=30).clip(min=1.0)
            for r in runtimes:
                naive.observe(float(r))
                aware.observe(float(r))
            for _ in range(8):  # ~20% of attempts failed
                aware.observe_failure(float(rng.uniform(1, 9)))
            pending = 40
            # ground truth: each task may need retries (p = 0.2)
            actual = 0.0
            for _ in range(pending):
                while rng.random() < 0.2:
                    actual += float(rng.uniform(1, 9))  # wasted attempt
                actual += float(rng.normal(10, 2))
            eta_naive, _, _ = planner.robust_demand(naive.estimate(pending))
            eta_aware, _, _ = planner.robust_demand(aware.estimate(pending))
            covered_naive += eta_naive >= actual
            covered_aware += eta_aware >= actual
        assert covered_aware >= covered_naive
        assert covered_aware / trials >= 0.8
