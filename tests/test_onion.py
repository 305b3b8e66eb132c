"""Tests for the onion peeling algorithm (Algorithm 3 / Theorem 2)."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.core.onion import OnionJob, default_horizon, solve_onion
from repro.utility import (
    ConstantUtility,
    LinearUtility,
    SigmoidUtility,
    StepUtility,
)


def linear_job(job_id, demand, budget, priority=1.0, beta=1.0, **kw):
    return OnionJob(job_id, demand, LinearUtility(budget, priority, beta), **kw)


class TestValidation:
    def test_zero_capacity(self):
        with pytest.raises(InfeasiblePlanError):
            solve_onion([linear_job("a", 10, 10)], 0)

    def test_bad_tolerance(self):
        with pytest.raises(ConfigurationError):
            solve_onion([linear_job("a", 10, 10)], 1, tolerance=0)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf])
    def test_non_finite_tolerance(self, tolerance):
        with pytest.raises(ConfigurationError, match="finite"):
            solve_onion([linear_job("a", 10, 10)], 1, tolerance=tolerance)

    def test_duplicate_ids(self):
        with pytest.raises(ConfigurationError):
            solve_onion([linear_job("a", 10, 10), linear_job("a", 5, 5)], 1)

    def test_negative_demand(self):
        with pytest.raises(ConfigurationError):
            OnionJob("a", -1, LinearUtility(10, 1))

    def test_negative_elapsed(self):
        with pytest.raises(ConfigurationError):
            OnionJob("a", 1, LinearUtility(10, 1), elapsed=-1)

    def test_horizon_too_small(self):
        with pytest.raises(InfeasiblePlanError):
            solve_onion([linear_job("a", 100, 10)], 1, horizon=5)


class TestEmptyAndTrivial:
    def test_no_jobs(self):
        result = solve_onion([], 4)
        assert result.targets == {}

    def test_zero_demand_job_completes_now(self):
        result = solve_onion([linear_job("a", 0, budget=10, priority=2)], 4)
        target = result.targets["a"]
        assert target.target_completion == 0
        assert target.utility_value == pytest.approx(12.0)  # beta*B + W at t=0
        assert target.layer == 0

    def test_single_job_gets_earliest_possible(self):
        """One job, ample capacity: the target is near its best deadline."""
        result = solve_onion([linear_job("a", 10, budget=100, priority=5)], 10)
        target = result.targets["a"]
        # 10 slots of demand on 10 containers completes in 1 slot.
        assert 1 <= target.target_completion <= 2
        assert target.achievable


class TestCapacityPressure:
    def test_target_respects_capacity(self):
        """demand/capacity lower-bounds any job's completion-time."""
        result = solve_onion([linear_job("a", 100, budget=200, priority=1)], 4)
        assert result.targets["a"].target_completion >= 25

    def test_two_identical_jobs_share(self):
        jobs = [linear_job("a", 40, budget=100), linear_job("b", 40, budget=100)]
        result = solve_onion(jobs, 4)
        completions = sorted(t.target_completion for t in result.targets.values())
        # Both must fit 80 slots of demand on 4 containers: last one >= 20,
        # and once the bottleneck is peeled the survivor runs sooner.
        assert completions[-1] >= 20
        assert completions[0] <= completions[-1]
        # The max-min level: the worse job finishes at slot 20, worth
        # beta*(100-20) + 1 = 81.
        assert min(t.utility_value for t in result.targets.values()) == \
            pytest.approx(81.0, abs=1.5)

    def test_staircase_condition_holds_at_targets(self):
        """Theorem 2's condition (12) holds for the peeled targets."""
        rng = np.random.default_rng(7)
        jobs = [linear_job(f"j{i}", float(rng.integers(5, 80)),
                           budget=float(rng.integers(20, 120)),
                           priority=float(rng.integers(1, 6)))
                for i in range(12)]
        capacity = 4
        result = solve_onion(jobs, capacity)
        pairs = sorted(
            ((result.targets[j.job_id].target_completion, j.demand) for j in jobs))
        prefix = 0.0
        for completion, demand in pairs:
            prefix += demand
            assert prefix <= capacity * completion + 1e-6


class TestLexicographicBehaviour:
    def test_constant_jobs_are_deferred(self):
        """Insensitive jobs donate capacity and land at the horizon."""
        jobs = [
            OnionJob("flat", 40, ConstantUtility(5.0)),
            linear_job("tight", 40, budget=12, priority=1.0),
        ]
        result = solve_onion(jobs, 4, horizon=40)
        assert result.targets["flat"].target_completion == 40
        assert result.targets["tight"].target_completion <= 13
        assert result.targets["flat"].utility_value == 5.0

    def test_bottleneck_is_peeled_first(self):
        """The job that caps the max-min level leaves in layer 1."""
        jobs = [
            linear_job("huge", 200, budget=10, priority=1.0),   # hopeless
            linear_job("easy", 10, budget=100, priority=1.0),
        ]
        result = solve_onion(jobs, 2, horizon=200)
        assert result.targets["huge"].layer == 1
        assert result.targets["easy"].layer == 2
        assert result.targets["easy"].utility_value > \
            result.targets["huge"].utility_value

    def test_utility_vector_sorted(self):
        jobs = [linear_job(f"j{i}", 20 * (i + 1), budget=50) for i in range(4)]
        result = solve_onion(jobs, 3)
        vec = result.utility_vector()
        assert vec == sorted(vec)

    def test_expired_job_gets_zero_and_others_proceed(self):
        """A job past any useful deadline is sacrificed, not fatal."""
        jobs = [
            linear_job("late", 50, budget=5, priority=1.0, elapsed=100.0),
            linear_job("fresh", 20, budget=100, priority=1.0),
        ]
        result = solve_onion(jobs, 2, horizon=100)
        assert not result.targets["late"].achievable
        assert result.targets["fresh"].achievable

    def test_max_min_value_against_bruteforce(self):
        """Layer-1 utility matches a brute-force search over completions."""
        capacity = 2
        jobs = [
            linear_job("a", 6, budget=4, priority=2.0, beta=1.0),
            linear_job("b", 8, budget=6, priority=1.0, beta=1.0),
        ]
        horizon = 20
        result = solve_onion(jobs, capacity, horizon=horizon, tolerance=1e-4)

        best_minimum = -math.inf
        for ta, tb in itertools.product(range(1, horizon + 1), repeat=2):
            # check the staircase condition for the candidate completions
            order = sorted([(ta, 6.0), (tb, 8.0)])
            prefix, ok = 0.0, True
            for completion, demand in order:
                prefix += demand
                if prefix > capacity * completion:
                    ok = False
                    break
            if not ok:
                continue
            minimum = min(jobs[0].utility.value(ta), jobs[1].utility.value(tb))
            best_minimum = max(best_minimum, minimum)
        achieved = min(t.utility_value for t in result.targets.values())
        assert achieved >= best_minimum - 0.01  # within bisection tolerance


class TestElapsedAndCompensation:
    def test_elapsed_shrinks_deadline(self):
        fresh = solve_onion([linear_job("a", 10, budget=50)], 2, horizon=60)
        aged = solve_onion([linear_job("a", 10, budget=50, elapsed=30.0)], 2,
                           horizon=60)
        assert (aged.targets["a"].target_completion
                <= fresh.targets["a"].target_completion)

    def test_elapsed_affects_reported_utility(self):
        result = solve_onion([linear_job("a", 10, budget=50, priority=5,
                                         elapsed=30.0)], 2, horizon=60)
        target = result.targets["a"]
        expected = LinearUtility(50, 5).value(30.0 + target.target_completion)
        assert target.utility_value == pytest.approx(expected)

    def test_compensation_shrinks_deadline(self):
        plain = solve_onion([linear_job("a", 40, budget=50)], 2, horizon=60)
        padded = solve_onion([linear_job("a", 40, budget=50, compensation=10.0)],
                             2, horizon=60)
        assert (padded.targets["a"].target_completion
                <= plain.targets["a"].target_completion)


class TestStepUtilities:
    def test_step_deadline_enforced(self):
        jobs = [
            OnionJob("hard", 20, StepUtility(budget=10, priority=5)),
            OnionJob("soft", 20, LinearUtility(budget=40, priority=1)),
        ]
        result = solve_onion(jobs, 4, horizon=40)
        assert result.targets["hard"].target_completion <= 10
        assert result.targets["hard"].utility_value == 5.0


class TestDefaultHorizon:
    def test_fits_total_demand(self):
        jobs = [linear_job("a", 95, budget=10), linear_job("b", 55, budget=10)]
        horizon = default_horizon(jobs, 10)
        assert horizon >= 15

    def test_minimum_one(self):
        assert default_horizon([], 10) == 1


class TestScale:
    def test_many_jobs_terminate(self):
        rng = np.random.default_rng(0)
        jobs = []
        for i in range(60):
            kind = i % 3
            demand = float(rng.integers(10, 200))
            budget = float(rng.integers(30, 300))
            priority = float(rng.integers(1, 6))
            if kind == 0:
                utility = SigmoidUtility(budget, priority, beta=0.5)
            elif kind == 1:
                utility = SigmoidUtility(budget, priority, beta=0.05)
            else:
                utility = ConstantUtility(priority)
            jobs.append(OnionJob(f"j{i}", demand, utility))
        result = solve_onion(jobs, 16)
        assert len(result.targets) == 60
        assert result.layers <= 60
