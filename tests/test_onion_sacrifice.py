"""The floor-level sacrifice keeps the most jobs above the floor.

When the first layer bottoms out at the utility floor, some jobs must end
there.  The jobs that end above it all fit at the deadlines for ``floor +
tolerance``, so no solver can leave fewer at the floor than the largest
subset the staircase test (12) admits at those deadlines.  One
Moore–Hodgson pass reaches that bound; the oracle here is enumeration
over every subset, through the public ``core.feasibility`` helper and
the LP referee's ``UtilityFunction.deadline_for`` deadlines.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.feasibility import staircase_feasible
from repro.core.onion import OnionJob, default_horizon, solve_onion
from repro.utility import (ConstantUtility, LinearUtility, SigmoidUtility,
                           StepUtility)

from .tas_lp import _deadline, solve_tas_lp
from .test_onion_certificates import HyperbolicUtility

#: The instance from the brute-force counterexample: total demand 18 on
#: C = 2 means one of j0/j1 must be sacrificed; sacrificing j0 lets j1
#: reach utility 0.88, sacrificing j1 leaves j0 at only 0.26.
COUNTEREXAMPLE = [
    OnionJob("j0", 7.0, LinearUtility(5.0, 0.0, beta=0.263)),
    OnionJob("j1", 4.0, LinearUtility(6.0, 0.0, beta=0.220)),
    OnionJob("j2", 7.0, LinearUtility(8.0, 3.0, beta=0.111)),
]

#: Draws of :func:`tight_linear` among the first 400 where the retired
#: floor lookahead left more jobs at the floor than the optimum.
TIGHT_SEEDS = [0, 5, 72, 91, 104, 146, 166, 182, 239, 306, 330]


def most_kept(jobs: Sequence[OnionJob], capacity: int, tolerance: float,
              horizon: int) -> int:
    """The largest subset that fits at the deadlines for floor + tolerance."""
    level = min(min(job.utility.min_value() for job in jobs), 0.0) + tolerance
    pairs = [(_deadline(job, level, horizon), job.demand) for job in jobs]
    for size in range(len(pairs), 0, -1):
        if any(staircase_feasible([pairs[k] for k in subset], capacity)
               for subset in combinations(range(len(pairs)), size)):
            return size
    return 0


def achievable(jobs, capacity, tolerance, horizon) -> int:
    result = solve_onion(jobs, capacity, tolerance=tolerance, horizon=horizon)
    return sum(target.achievable for target in result.targets.values())


def tight_linear(seed: int):
    """Three to five linear jobs on two containers, tight enough that the
    first layer usually bottoms out at the floor."""
    rng = np.random.default_rng(seed)
    jobs = [OnionJob(f"j{i}", float(rng.integers(2, 10)),
                     LinearUtility(float(rng.integers(3, 11)),
                                   float(rng.integers(0, 2)),
                                   beta=float(rng.uniform(0.3, 0.4))))
            for i in range(int(rng.integers(3, 6)))]
    return jobs, default_horizon(jobs, 2) + 4


@st.composite
def floor_fleets(draw):
    """Up to seven jobs of every class, capacity 1-4, at a horizon that
    admits the bottom layer."""
    jobs = []
    for i in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(
            ["linear", "sigmoid", "constant", "step", "custom"]))
        budget = float(draw(st.integers(1, 10)))
        priority = draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
        if kind == "linear":
            utility = LinearUtility(budget, priority,
                                    beta=draw(st.sampled_from([0.1, 0.35, 1.0])))
        elif kind == "sigmoid":
            utility = SigmoidUtility(budget, priority,
                                     beta=draw(st.sampled_from([0.3, 1.0])))
        elif kind == "constant":
            utility = ConstantUtility(priority)
        elif kind == "step":
            utility = StepUtility(budget, priority)
        else:
            utility = HyperbolicUtility(priority,
                                        draw(st.sampled_from([1.0, 4.0])))
        demand = draw(st.one_of(
            st.integers(1, 12).map(float),
            st.floats(0.25, 12.0).map(lambda x: round(x, 2))))
        jobs.append(OnionJob(
            f"j{i}", demand, utility,
            elapsed=draw(st.sampled_from([0.0, 0.0, 1.5, 3.0])),
            compensation=draw(st.sampled_from([0.0, 0.0, 0.75]))))
    capacity = draw(st.integers(1, 4))
    horizon = default_horizon(jobs, capacity) + draw(st.integers(0, 4))
    return jobs, capacity, horizon


@settings(max_examples=300, deadline=None)
@given(case=floor_fleets(), tolerance=st.sampled_from([1e-3, 0.01, 0.05]))
def test_no_more_jobs_at_the_floor_than_the_optimum(case, tolerance):
    jobs, capacity, horizon = case
    assert (achievable(jobs, capacity, tolerance, horizon)
            >= most_kept(jobs, capacity, tolerance, horizon))


@pytest.mark.parametrize("seed", TIGHT_SEEDS)
def test_tight_linear_fleets_keep_the_optimum(seed):
    jobs, horizon = tight_linear(seed)
    assert (achievable(jobs, 2, 1e-3, horizon)
            >= most_kept(jobs, 2, 1e-3, horizon))


def test_counterexample_sacrifices_the_larger_demand():
    """Moore–Hodgson drops j0 (η 7, not j1's 4), which lets j1 reach the
    0.88 the brute-force optimum gives it."""
    result = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-4, horizon=12)
    assert not result.targets["j0"].achievable
    assert result.targets["j0"].target_completion == 12
    assert result.targets["j1"].utility_value == pytest.approx(0.88, abs=0.05)
    assert most_kept(COUNTEREXAMPLE, 2, 1e-4, 12) == 2


def test_lp_solver_agrees_on_the_sacrifice():
    onion = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-3, horizon=12)
    lp = solve_tas_lp(COUNTEREXAMPLE, 2, tolerance=1e-3, horizon=12)
    for job_id in ("j0", "j1", "j2"):
        assert (lp.targets[job_id].utility_value
                == pytest.approx(onion.targets[job_id].utility_value,
                                 abs=0.05))

