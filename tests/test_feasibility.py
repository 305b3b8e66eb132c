"""Tests for the public staircase feasibility helpers (Theorem 2)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.core.feasibility import (
    first_violation,
    minimum_capacity,
    staircase_feasible,
)

from .tas_lp import lp_feasible


class TestValidation:
    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            staircase_feasible([(1, 1)], 0)

    def test_negative_demand(self):
        with pytest.raises(ConfigurationError):
            staircase_feasible([(1, -1)], 1)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            staircase_feasible([(float("nan"), 1)], 1)


class TestStaircase:
    def test_empty_is_feasible(self):
        assert staircase_feasible([], 1)

    def test_simple_fit(self):
        assert staircase_feasible([(5, 10)], 2)
        assert not staircase_feasible([(4, 10)], 2)

    def test_cumulative_constraint(self):
        # individually fine, cumulatively not: 4+4 units by slot 3 on C=2
        assert not staircase_feasible([(2, 4), (3, 4)], 2)
        assert staircase_feasible([(2, 4), (4, 4)], 2)

    def test_zero_demand_ignores_deadline(self):
        assert staircase_feasible([(0, 0), (-5, 0)], 1)

    def test_first_violation_index(self):
        assert first_violation([(2, 4), (3, 4)], 2) == 1
        assert first_violation([(1, 4), (3, 4)], 2) == 0
        assert first_violation([(10, 4), (20, 4)], 2) is None


class TestMinimumCapacity:
    def test_single_job(self):
        assert minimum_capacity([(5, 10)]) == pytest.approx(2.0)

    def test_staircase_maximum(self):
        # by 2: 4 units -> 2/slot; by 4: 8 units -> 2/slot; by 5: 18 -> 3.6
        assert minimum_capacity([(2, 4), (4, 4), (5, 10)]) == pytest.approx(3.6)

    def test_feasible_at_minimum(self):
        pairs = [(2, 4), (4, 4), (5, 10)]
        cap = minimum_capacity(pairs)
        assert staircase_feasible(pairs, cap + 1e-9)
        assert not staircase_feasible(pairs, cap * 0.99)

    def test_impossible_deadline(self):
        with pytest.raises(ConfigurationError):
            minimum_capacity([(0, 5)])

    def test_empty(self):
        assert minimum_capacity([]) == 0.0


class TestTheorem2Equivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.tuples(st.integers(min_value=1, max_value=12),
                              st.floats(min_value=0.0, max_value=25.0)),
                    min_size=1, max_size=5))
    def test_matches_lp(self, capacity, pairs):
        """The staircase test and the LP relaxation agree (Theorem 2)."""
        deadlines = [d for d, _ in pairs]
        demands = [eta for _, eta in pairs]
        assert staircase_feasible(pairs, capacity) == lp_feasible(
            deadlines, demands, capacity, horizon=15)
