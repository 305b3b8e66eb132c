"""Tests for the LP baseline and its equivalence to onion peeling."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.core.onion import OnionJob, default_horizon, solve_onion
from repro.utility import ConstantUtility, LinearUtility, SigmoidUtility

from .tas_lp import lp_feasible, solve_tas_lp


class TestLpFeasible:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            lp_feasible([1], [1], 0, 10)
        with pytest.raises(ConfigurationError):
            lp_feasible([1], [1], 1, 0)

    def test_trivial_cases(self):
        assert lp_feasible([], [], 2, 10)
        assert lp_feasible([5], [0], 2, 10)  # zero demand ignores deadline
        assert not lp_feasible([-math.inf], [1], 2, 10)
        assert not lp_feasible([0], [1], 2, 10)
        assert lp_feasible([math.inf], [19], 2, 10)   # capped at horizon
        assert not lp_feasible([math.inf], [21], 2, 10)

    def test_single_job_threshold(self):
        # 10 units on 2 containers needs 5 slots.
        assert lp_feasible([5], [10], 2, 20)
        assert not lp_feasible([4], [10], 2, 20)

    def test_staggered_deadlines(self):
        # job 1: 4 units by slot 2 (needs both containers);
        # job 2: 4 units by slot 4 (uses the remaining space exactly).
        assert lp_feasible([2, 4], [4, 4], 2, 10)
        assert not lp_feasible([2, 3], [4, 4], 2, 10)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.tuples(st.integers(min_value=1, max_value=15),
                              st.floats(min_value=0.5, max_value=30.0)),
                    min_size=1, max_size=5))
    def test_theorem2_equivalence(self, capacity, raw):
        """LP feasibility coincides with the staircase condition (12)."""
        deadlines = [d for d, _ in raw]
        demands = [eta for _, eta in raw]
        horizon = 20

        prefix, staircase = 0.0, True
        for d, eta in sorted(zip(deadlines, demands)):
            prefix += eta
            if prefix > capacity * d + 1e-9:
                staircase = False
                break
        assert lp_feasible(deadlines, demands, capacity, horizon) == staircase


class TestSolveTasLp:
    def test_validation(self):
        with pytest.raises(InfeasiblePlanError):
            solve_tas_lp([OnionJob("a", 1, LinearUtility(5, 1))], 0)
        with pytest.raises(ConfigurationError):
            solve_tas_lp([OnionJob("a", 1, LinearUtility(5, 1))], 1, tolerance=0)

    def test_zero_demand_short_circuit(self):
        result = solve_tas_lp([OnionJob("a", 0, LinearUtility(5, 2))], 2)
        assert result.targets["a"].target_completion == 0

    def test_horizon_infeasible(self):
        with pytest.raises(InfeasiblePlanError):
            solve_tas_lp([OnionJob("a", 100, LinearUtility(5, 1))], 1, horizon=5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_onion_peeling(self, seed):
        """The LP oracle and the staircase oracle produce the same layers."""
        rng = np.random.default_rng(seed)
        jobs = []
        for i in range(5):
            demand = float(rng.integers(2, 30))
            budget = float(rng.integers(5, 50))
            priority = float(rng.integers(1, 5))
            kind = int(rng.integers(3))
            if kind == 0:
                utility = LinearUtility(budget, priority)
            elif kind == 1:
                utility = SigmoidUtility(budget, priority, beta=0.3)
            else:
                utility = ConstantUtility(priority)
            jobs.append(OnionJob(f"j{i}", demand, utility))
        capacity = 3
        onion = solve_onion(jobs, capacity, tolerance=1e-3)
        lp = solve_tas_lp(jobs, capacity, tolerance=1e-3)
        for job in jobs:
            assert (lp.targets[job.job_id].utility_value
                    == pytest.approx(onion.targets[job.job_id].utility_value,
                                     abs=0.05, rel=0.02))

    def test_utility_vectors_match(self):
        jobs = [
            OnionJob("a", 20, LinearUtility(30, 2)),
            OnionJob("b", 15, SigmoidUtility(25, 3, beta=0.2)),
            OnionJob("c", 10, ConstantUtility(1)),
        ]
        onion = solve_onion(jobs, 2, tolerance=1e-3)
        lp = solve_tas_lp(jobs, 2, tolerance=1e-3)
        for u_lp, u_on in zip(lp.utility_vector(), onion.utility_vector()):
            assert u_lp == pytest.approx(u_on, abs=0.05, rel=0.02)

    def test_floor_lookahead_scores_each_sacrifice(self):
        """Three jobs whose first layer bottoms out at the floor: which
        one is sacrificed decides the rest of the vector.  Both solvers
        run their own Moore–Hodgson pass, which drops c — the largest
        demand in the prefix that overflows at floor + tolerance — and
        pins it at the horizon."""
        jobs = [OnionJob("a", 2, LinearUtility(3, 0, beta=0.35)),
                OnionJob("b", 7, LinearUtility(9, 1, beta=0.372)),
                OnionJob("c", 8, LinearUtility(5, 0, beta=0.328))]
        onion = solve_onion(jobs, 2, tolerance=1e-3, horizon=14)
        lp = solve_tas_lp(jobs, 2, tolerance=1e-3, horizon=14)
        for result in (onion, lp):
            assert result.targets["c"].target_completion == 14
            assert not result.targets["c"].achievable
        assert onion.utility_vector() == pytest.approx([0.0, 0.70, 2.49],
                                                       abs=0.01)
        assert lp.utility_vector() == pytest.approx(onion.utility_vector(),
                                                    abs=0.01)

    @pytest.mark.parametrize("seed", range(40))
    def test_reference_is_never_lexicographically_worse(self, seed):
        """Tight 3-5-job fleets, where floor layers (and so the sacrifice
        pass) are the rule rather than the exception."""
        rng = np.random.default_rng(seed)
        jobs = [OnionJob(f"j{i}", float(rng.integers(2, 10)),
                         LinearUtility(float(rng.integers(3, 11)),
                                       float(rng.integers(0, 2)),
                                       beta=float(rng.uniform(0.3, 0.4))))
                for i in range(int(rng.integers(3, 6)))]
        horizon = default_horizon(jobs, 2) + 4
        onion = solve_onion(jobs, 2, tolerance=1e-3,
                            horizon=horizon).utility_vector()
        lp = solve_tas_lp(jobs, 2, tolerance=1e-3,
                          horizon=horizon).utility_vector()
        # Lexicographic order on the sorted vectors, to the tolerance the
        # equality below uses: the first entry that differs decides.
        first_gap = next((a - b for a, b in zip(lp, onion)
                          if abs(a - b) > 0.01), 0.0)
        assert first_gap >= 0.0, "reference lexicographically worse"
        assert lp == pytest.approx(onion, abs=0.01)
