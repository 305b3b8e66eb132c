"""Tests for the floor-level sacrifice lookahead (and its greedy fallback)."""

from __future__ import annotations

import pytest

from repro.core.onion import OnionJob, solve_onion
from repro.cluster.metrics import lexicographic_compare
from repro.utility import LinearUtility

from .tas_lp import solve_tas_lp

#: The instance from the brute-force counterexample: total demand 18 on
#: C = 2 means one of j0/j1 must be sacrificed; sacrificing j0 lets j1
#: reach utility 0.88, sacrificing j1 leaves j0 at only 0.26.
COUNTEREXAMPLE = [
    OnionJob("j0", 7.0, LinearUtility(5.0, 0.0, beta=0.263)),
    OnionJob("j1", 4.0, LinearUtility(6.0, 0.0, beta=0.220)),
    OnionJob("j2", 7.0, LinearUtility(8.0, 3.0, beta=0.111)),
]


class TestSacrificeLookahead:
    def test_lookahead_picks_the_better_sacrifice(self):
        result = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-4, horizon=12)
        assert not result.targets["j0"].achievable  # j0 is sacrificed
        assert result.targets["j1"].utility_value == pytest.approx(0.88, abs=0.05)

    def test_greedy_mode_reproduces_papers_rule(self):
        """lookahead=0 restores the (suboptimal here) greedy behaviour."""
        result = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-4, horizon=12,
                             lookahead=0)
        assert not result.targets["j1"].achievable  # greedy sacrifices j1

    def test_lookahead_never_worse_than_greedy(self):
        smart = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-4, horizon=12)
        greedy = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-4, horizon=12,
                             lookahead=0)
        assert lexicographic_compare(smart.utility_vector(),
                                     greedy.utility_vector()) >= 0

    def test_lp_solver_agrees_with_lookahead(self):
        onion = solve_onion(COUNTEREXAMPLE, 2, tolerance=1e-3, horizon=12)
        lp = solve_tas_lp(COUNTEREXAMPLE, 2, tolerance=1e-3, horizon=12)
        for job_id in ("j0", "j1", "j2"):
            assert (lp.targets[job_id].utility_value
                    == pytest.approx(onion.targets[job_id].utility_value,
                                     abs=0.05))

    def test_interior_levels_unaffected_by_lookahead(self):
        """When nobody is sacrificed, lookahead changes nothing."""
        jobs = [
            OnionJob("a", 6.0, LinearUtility(20.0, 1.0, beta=0.2)),
            OnionJob("b", 6.0, LinearUtility(25.0, 1.0, beta=0.2)),
        ]
        smart = solve_onion(jobs, 2, tolerance=1e-4, horizon=30)
        greedy = solve_onion(jobs, 2, tolerance=1e-4, horizon=30, lookahead=0)
        for job_id in ("a", "b"):
            assert (smart.targets[job_id].target_completion
                    == greedy.targets[job_id].target_completion)
