"""Tests for the utility classes of Section IV (and extensions)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.utility import (
    ConstantUtility,
    LinearUtility,
    PiecewiseUtility,
    SigmoidUtility,
    StepUtility,
    UtilityFunction,
    utility_to_config,
)

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
budgets = st.floats(min_value=0.1, max_value=1e4)
priorities = st.floats(min_value=0.1, max_value=100.0)
betas = st.floats(min_value=0.001, max_value=10.0)


def all_utilities():
    """Strategy producing one instance of every shipped utility class."""
    linear = st.builds(LinearUtility, budget=budgets, priority=priorities, beta=betas)
    sigmoid = st.builds(SigmoidUtility, budget=budgets, priority=priorities, beta=betas)
    constant = st.builds(ConstantUtility, priority=priorities)
    step = st.builds(StepUtility, budget=budgets, priority=priorities)
    return st.one_of(linear, sigmoid, constant, step)


class TestLinear:
    def test_values(self):
        u = LinearUtility(budget=100, priority=5, beta=0.5)
        assert u.value(0) == pytest.approx(55.0)
        assert u.value(100) == pytest.approx(5.0)
        assert u.value(110) == pytest.approx(0.0)
        assert u.value(1000) == 0.0

    def test_zero_utility_time(self):
        u = LinearUtility(budget=100, priority=5, beta=0.5)
        assert u.zero_utility_time() == pytest.approx(110.0)
        assert u.value(u.zero_utility_time()) == pytest.approx(0.0)

    def test_deadline(self):
        u = LinearUtility(budget=100, priority=5, beta=0.5)
        assert u.deadline_for(5.0) == pytest.approx(100.0)
        assert u.deadline_for(55.0) == pytest.approx(0.0)
        assert u.deadline_for(0.0) == math.inf
        assert u.deadline_for(100.0) == -math.inf

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LinearUtility(budget=-1, priority=1)
        with pytest.raises(ConfigurationError):
            LinearUtility(budget=1, priority=1, beta=0)

    def test_equality_and_hash(self):
        a = LinearUtility(10, 2, 0.5)
        assert a == LinearUtility(10, 2, 0.5)
        assert a != LinearUtility(11, 2, 0.5)
        assert hash(a) == hash(LinearUtility(10, 2, 0.5))


class TestSigmoid:
    def test_half_priority_at_budget(self):
        u = SigmoidUtility(budget=100, priority=4, beta=0.5)
        assert u.value(100) == pytest.approx(2.0)

    def test_non_increasing_direction(self):
        """Regression for the paper's sign typo: late must be worse."""
        u = SigmoidUtility(budget=100, priority=4, beta=0.5)
        assert u.value(50) > u.value(100) > u.value(150)

    def test_steepness(self):
        gentle = SigmoidUtility(budget=100, priority=4, beta=0.05)
        steep = SigmoidUtility(budget=100, priority=4, beta=2.0)
        # the critical job collapses right after the budget
        assert steep.value(110) < 1e-8
        assert gentle.value(110) > 1.0

    def test_overflow_guarded(self):
        u = SigmoidUtility(budget=10, priority=1, beta=5.0)
        assert u.value(1e9) == 0.0

    def test_deadline_roundtrip(self):
        u = SigmoidUtility(budget=100, priority=4, beta=0.5)
        for level in (0.1, 1.0, 2.0, 3.9):
            t = u.deadline_for(level)
            assert u.value(t) == pytest.approx(level, rel=1e-9)

    def test_deadline_extremes(self):
        u = SigmoidUtility(budget=100, priority=4, beta=0.5)
        assert u.deadline_for(0.0) == math.inf
        assert u.deadline_for(4.1) == -math.inf
        # with beta * budget = 50 the ceiling rounds to the priority itself
        assert u.deadline_for(u.max_value()) == pytest.approx(0.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SigmoidUtility(budget=10, priority=0, beta=1)
        with pytest.raises(ConfigurationError):
            SigmoidUtility(budget=10, priority=1, beta=-1)


class TestConstant:
    def test_flat(self):
        u = ConstantUtility(3.0)
        assert u.value(0) == u.value(1e9) == 3.0
        assert u.max_value() == u.min_value() == 3.0

    def test_deadline(self):
        u = ConstantUtility(3.0)
        assert u.deadline_for(3.0) == math.inf
        assert u.deadline_for(3.01) == -math.inf

    def test_zero_priority_allowed(self):
        assert ConstantUtility(0.0).value(5) == 0.0


class TestStep:
    def test_values(self):
        u = StepUtility(budget=50, priority=2)
        assert u.value(50) == 2.0
        assert u.value(50.01) == 0.0

    def test_deadline(self):
        u = StepUtility(budget=50, priority=2)
        assert u.deadline_for(1.0) == 50.0
        assert u.deadline_for(0.0) == math.inf
        assert u.deadline_for(2.5) == -math.inf


class TestPiecewise:
    def test_interpolation(self):
        u = PiecewiseUtility([(0, 10), (10, 10), (20, 0)])
        assert u.value(5) == pytest.approx(10.0)
        assert u.value(15) == pytest.approx(5.0)
        assert u.value(25) == 0.0

    def test_deadline(self):
        u = PiecewiseUtility([(0, 10), (10, 10), (20, 0)])
        assert u.deadline_for(5.0) == pytest.approx(15.0)
        assert u.deadline_for(10.0) == pytest.approx(10.0)
        assert u.deadline_for(0.0) == math.inf
        assert u.deadline_for(11.0) == -math.inf

    def test_flat_tail_deadline(self):
        u = PiecewiseUtility([(0, 10), (20, 2)])
        # level exactly equal to the tail value holds forever
        assert u.deadline_for(2.0) == math.inf
        assert u.deadline_for(2.1) == pytest.approx(19.75)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PiecewiseUtility([])
        with pytest.raises(ConfigurationError):
            PiecewiseUtility([(0, 1), (0, 2)])
        with pytest.raises(ConfigurationError):
            PiecewiseUtility([(0, 1), (10, 2)])  # increasing
        with pytest.raises(ConfigurationError):
            PiecewiseUtility([(-1, 1)])


class TestGenericProperties:
    @settings(max_examples=100)
    @given(all_utilities(), times, times)
    def test_non_increasing(self, utility, t1, t2):
        lo, hi = sorted((t1, t2))
        assert utility.value(lo) >= utility.value(hi) - 1e-9

    @settings(max_examples=100)
    @given(all_utilities(), times)
    def test_bounded_by_extremes(self, utility, t):
        v = utility.value(t)
        assert utility.min_value() - 1e-9 <= v <= utility.max_value() + 1e-9

    @settings(max_examples=100)
    @given(all_utilities(), st.floats(min_value=0.001, max_value=1.0))
    def test_deadline_achieves_level(self, utility, frac):
        """value(deadline_for(L)) >= L whenever the deadline is finite."""
        level = utility.min_value() + frac * (
            utility.max_value() - utility.min_value())
        if level <= utility.min_value():
            return
        deadline = utility.deadline_for(level)
        if math.isinf(deadline):
            return
        assert utility.value(deadline) >= level - 1e-6 * max(1.0, level)

    @settings(max_examples=100)
    @given(all_utilities(), st.floats(min_value=0.001, max_value=1.0))
    def test_deadline_is_latest(self, utility, frac):
        """Slightly past the deadline the level is no longer attained."""
        level = utility.min_value() + frac * (
            utility.max_value() - utility.min_value())
        deadline = utility.deadline_for(level)
        if not math.isfinite(deadline):
            return
        late = deadline + max(1e-6, abs(deadline)) * 1e-5 + 1e-6
        assert utility.value(late) <= level + 1e-6 * max(1.0, level)


class TestDerivedFromParams:
    """``repr``, equality, hashing and ``utility_to_config`` are derived
    from ``PARAMS``; each reads exactly what the hand-written one did."""

    CASES = [
        (LinearUtility(10, 2, 0.5),
         "LinearUtility(budget=10.0, priority=2.0, beta=0.5)",
         {"class": "linear", "budget": 10.0, "priority": 2.0, "beta": 0.5},
         ("LinearUtility", 10.0, 2.0, 0.5)),
        (SigmoidUtility(600, 5, 0.8),
         "SigmoidUtility(budget=600.0, priority=5.0, beta=0.8)",
         {"class": "sigmoid", "budget": 600.0, "priority": 5.0, "beta": 0.8},
         ("SigmoidUtility", 600.0, 5.0, 0.8)),
        (ConstantUtility(3),
         "ConstantUtility(priority=3.0)",
         {"class": "constant", "priority": 3.0},
         ("ConstantUtility", 3.0)),
        (StepUtility(50, 2.5),
         "StepUtility(budget=50.0, priority=2.5)",
         {"class": "step", "budget": 50.0, "priority": 2.5},
         ("StepUtility", 50.0, 2.5)),
    ]

    @pytest.mark.parametrize("utility, text, config, hashed", CASES)
    def test_repr_config_and_hash_are_unchanged(self, utility, text, config,
                                                hashed):
        assert repr(utility) == text
        assert list(utility_to_config(utility).items()) == list(config.items())
        assert hash(utility) == hash(hashed)

    def test_equality_is_per_class(self):
        assert StepUtility(5, 1) == StepUtility(5, 1)
        assert StepUtility(5, 1) != StepUtility(5, 2)
        assert LinearUtility(0, 1, 1) != SigmoidUtility(0, 1, 1)

    def test_piecewise_keeps_its_own(self):
        u = PiecewiseUtility([(0, 2), (10, 1)])
        assert repr(u) == "PiecewiseUtility([(0.0, 2.0), (10.0, 1.0)])"
        assert utility_to_config(u) == {"class": "piecewise",
                                        "points": [(0.0, 2.0), (10.0, 1.0)]}
        # Without PARAMS, equality and hashing stay by identity.
        assert u != PiecewiseUtility([(0, 2), (10, 1)])
        assert hash(u) == object.__hash__(u)


class TestDefaultBisectionFallback:
    class _Quadratic(UtilityFunction):
        """A custom monotone utility exercising the base-class bisection."""

        def value(self, completion_time: float) -> float:
            return 100.0 / (1.0 + completion_time) ** 2

        def max_value(self) -> float:
            return 100.0

        def min_value(self) -> float:
            return 0.0

    def test_fallback_deadline(self):
        u = self._Quadratic()
        deadline = u.deadline_for(25.0)
        assert deadline == pytest.approx(1.0, rel=1e-5)
        assert u.deadline_for(0.0) == math.inf
        assert u.deadline_for(101.0) == -math.inf
