"""The deadline bank's level queries, pinned bit for bit.

``_DeadlineBank.raw_deadlines`` answers ``U_i^{-1}(L)`` for a whole fleet
at once: each class with ``PARAMS`` through its own vectorised
``inverse``, any other class through its scalar ``deadline_for``, and
every job through the one ceiling rule.  ``deadline_for`` is the same
computation for one job, and the LP referee (``tests/tas_lp.py``) reads
it, so the two must agree byte for byte, not approximately — ceilings,
floors and one ulp either side included.

Before each class owned its inverse, the bank kept copies of the four
built-in forms with ceilings of its own (``max_value + 1e-15``, and a
sigmoid maximum of its own).  Those expressions are frozen below, rebuilt
from the utilities' public attributes, and the bank must still equal
them wherever the copies were not wrong: every level outside the
``(ceiling, ceiling + 1e-15]`` bands, but where the copies' sigmoid form
put a reachable level's deadline in the past (within rounding of the
ceiling, and at a saturated sigmoid's priority), which now reads 0.  No
interior float moved.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.onion import OnionJob, _DeadlineBank
from repro.utility import (ConstantUtility, LinearUtility, PiecewiseUtility,
                           SigmoidUtility, StepUtility)

from .test_onion_certificates import HyperbolicUtility

HORIZON = 40
BUILTINS = (LinearUtility, SigmoidUtility, ConstantUtility, StepUtility)


def strict():
    """Every floating-point state raises, but underflow: numpy ignores it
    by default, and a subnormal deadline (a zero-priority linear job at a
    subnormal level) is the right answer, not a fault."""
    return np.errstate(all="raise", under="ignore")


def stacked_deadline_for(jobs: List[OnionJob], level: float) -> np.ndarray:
    return np.array([job.utility.deadline_for(level) for job in jobs],
                    dtype=float)


def frozen_raw_deadlines(jobs: List[OnionJob], level: float) -> np.ndarray:
    """The bank's per-class copies of the inverse, as they read before
    each class owned one."""
    d = np.empty(len(jobs), dtype=float)

    def group(cls, *names):
        idx = np.array([i for i, job in enumerate(jobs)
                        if type(job.utility) is cls], dtype=int)
        return idx, [np.array([getattr(jobs[i].utility, name) for i in idx],
                              dtype=float) for name in names]

    idx, (b, w, beta) = group(LinearUtility, "budget", "priority", "beta")
    d[idx] = np.where(level <= 0.0, np.inf,
                      np.where(level > beta * b + w + 1e-15, -np.inf,
                               b + (w - level) / beta))
    idx, (b, w, beta) = group(SigmoidUtility, "budget", "priority", "beta")
    with np.errstate(all="ignore"):
        top = w / (1.0 + np.exp(-beta * b)) + 1e-15
        ratio = np.clip(w / max(level, 1e-300) - 1.0, 1e-300, None)
        formula = b + np.log(ratio) / beta
    d[idx] = np.where(level <= 0.0, np.inf,
                      np.where(level > top, -np.inf, formula))
    idx, (w,) = group(ConstantUtility, "priority")
    d[idx] = np.where(level <= w + 1e-15, np.inf, -np.inf)
    idx, (b, w) = group(StepUtility, "budget", "priority")
    d[idx] = np.where(level <= 0.0, np.inf,
                      np.where(level > w + 1e-15, -np.inf, b))
    for i, job in enumerate(jobs):
        if type(job.utility) not in BUILTINS:
            d[i] = job.utility.deadline_for(level)
    return d


def in_the_bands(jobs: List[OnionJob], level: float) -> np.ndarray:
    """Per job, whether ``level`` sits above its ceiling by at most the
    copies' ``1e-15``, where they answered a deadline and ``deadline_for``
    answers ``-inf``."""
    band = np.zeros(len(jobs), dtype=bool)
    for i, job in enumerate(jobs):
        u = job.utility
        if type(u) not in BUILTINS:
            continue
        ceiling = copies_ceiling = u.max_value()
        if type(u) is SigmoidUtility:
            # The copies computed the sigmoid's maximum with np.exp.
            copies_ceiling = float(
                u.priority / (1.0 + np.exp(-u.beta * u.budget)))
        band[i] = min(ceiling, copies_ceiling) < level <= copies_ceiling + 1e-15
    return band


def assert_no_interior_float_moved(jobs: List[OnionJob], level: float,
                                   got: np.ndarray) -> int:
    """``got`` equals the frozen copies outside the bands, but where the
    copies' sigmoid form put a reachable level's deadline in the past:
    the clamp reads 0 there (the saturated-sigmoid edge is one such
    level).  Returns how many entries the bands and the clamp moved."""
    want = frozen_raw_deadlines(jobs, level)
    band = in_the_bands(jobs, level)
    sigmoid = np.array([type(job.utility) is SigmoidUtility for job in jobs])
    past = sigmoid & ~band & (want < 0.0) & (want > -np.inf)
    kept = ~band & ~past
    assert got[kept].tobytes() == want[kept].tobytes(), level
    assert (got[past] == 0.0).all(), level
    return int(np.count_nonzero(past)
               + np.count_nonzero(got[band] != want[band]))


def frozen_deadlines(bank: _DeadlineBank, level: float) -> np.ndarray:
    """``deadlines``' cap, nudge and floor, as the masked expressions
    read before they became three in-place ufuncs."""
    d = bank.raw_deadlines(level) - bank._offsets
    d = np.minimum(d, bank._horizon)
    finite = np.isfinite(d)
    d[finite] = np.floor(d[finite] + 1e-9)
    return d


def fleet() -> List[OnionJob]:
    """Every class, several parameter shapes each (a sigmoid with budget
    0 tops out at half its priority; one with beta * budget = 50 tops
    out at its priority), interleaved so no class owns a contiguous
    block, with elapsed time and compensation offsets."""
    utilities = [
        LinearUtility(10.0, 1.0, 0.2), SigmoidUtility(12.0, 2.0, 0.5),
        ConstantUtility(1.5), StepUtility(7.0, 3.0),
        HyperbolicUtility(2.0, 9.0), LinearUtility(0.0, 0.5, 1.0),
        SigmoidUtility(0.0, 1.0, 2.0), ConstantUtility(0.0),
        StepUtility(0.0, 0.5), LinearUtility(35.0, 3.0, 0.05),
        SigmoidUtility(30.0, 3.0, 0.05), SigmoidUtility(4.0, 0.5, 8.0),
        PiecewiseUtility([(0, 2.5), (5, 2.5), (20, 0.5)]),
        SigmoidUtility(100.0, 4.0, 0.5), LinearUtility(0.0, 0.0, 1.0),
    ]
    offsets = [(0.0, 0.0), (1.5, 0.0), (0.0, 0.75), (7.0, 2.0)]
    return [OnionJob(f"j{i}", 3.0, u, *offsets[i % len(offsets)])
            for i, u in enumerate(utilities)]


def edge_levels(jobs: List[OnionJob]) -> List[float]:
    """Non-positive, subnormal and tiny levels, the smallest level the
    sigmoid form guards against, every job's ceiling and floor with one
    ulp either side, the frozen copies' ``1e-15`` ceilings, and above
    every ceiling."""
    levels = [-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-12, 0.25, 0.5, 0.999,
              1.0, 1.7, 2.5,
              max(job.utility.max_value() for job in jobs) * 2.0 + 1.0]
    for job in jobs:
        for bound in (job.utility.max_value(), job.utility.min_value()):
            levels += [bound, math.nextafter(bound, math.inf),
                       math.nextafter(bound, -math.inf), bound + 1e-15]
    return levels


@pytest.fixture(scope="module")
def bank() -> _DeadlineBank:
    return _DeadlineBank(fleet(), HORIZON)


def test_every_class_has_an_edge_to_pin():
    classes = [type(job.utility) for job in fleet()]
    for cls in BUILTINS:
        assert classes.count(cls) >= 2
        assert cls.PARAMS
    assert {HyperbolicUtility, PiecewiseUtility} <= set(classes)


def test_raw_deadlines_equal_deadline_for_at_every_edge(bank):
    jobs = fleet()
    for level in edge_levels(jobs):
        with strict():
            got = bank.raw_deadlines(level)
            want = stacked_deadline_for(jobs, level)
        assert got.tobytes() == want.tobytes(), level


def test_raw_deadlines_equal_the_frozen_expressions(bank):
    """Wherever the copies were right, not one float moved."""
    jobs = fleet()
    moved = 0
    for level in edge_levels(jobs):
        with strict():
            got = bank.raw_deadlines(level)
        moved += assert_no_interior_float_moved(jobs, level, got)
    assert moved > 0  # the bands and the clamp are reached


def test_deadlines_equal_the_frozen_expressions(bank):
    seen_inf = seen_finite = False
    for level in edge_levels(fleet()):
        with strict():
            got = bank.deadlines(level)
        want = frozen_deadlines(bank, level)
        assert got.tobytes() == want.tobytes(), level
        assert not got.flags.writeable
        seen_inf |= bool(np.isneginf(got).any())
        seen_finite |= bool(np.isfinite(got).any())
    assert seen_inf and seen_finite


def test_each_threshold_is_the_last_reachable_level(bank):
    """At a job's own ceiling it still has a deadline; one ulp above it
    has none — the edge certificate (A) predicts from ``max_values``, for
    every class, user classes included."""
    for pos, top in enumerate(bank.max_values):
        assert bank.raw_deadlines(float(top))[pos] > -np.inf
        above = math.nextafter(float(top), math.inf)
        assert bank.raw_deadlines(above)[pos] == -np.inf


@pytest.mark.parametrize("utility, level", [
    # The copies' ceiling was 4 + 1e-15: one ulp above 4 read +inf.
    (ConstantUtility(4.0), math.nextafter(4.0, math.inf)),
    # beta * budget = 50: the ceiling rounds to the priority, where the
    # copies' guarded log read a deadline of 100 - 2 * 690.8 < 0.
    (SigmoidUtility(100.0, 4.0, 0.5), 4.0),
])
def test_the_copies_edges_now_agree(utility, level):
    jobs = [OnionJob("j", 1.0, utility)]
    with strict():
        got = _DeadlineBank(jobs, HORIZON).raw_deadlines(level)
    assert got.tobytes() == stacked_deadline_for(jobs, level).tobytes()


class CappedUtility(LinearUtility):
    """A user subclass that inherits ``PARAMS`` and ``inverse`` but
    overrides ``deadline_for``: it wants every job done by slot 5."""

    def deadline_for(self, level: float) -> float:
        return min(super().deadline_for(level), 5.0)


def test_an_overriding_subclass_is_asked_through_its_override():
    """The bank must not answer a subclass through the ``inverse`` it
    inherited when it overrides ``deadline_for``: ``Capped`` at level 1
    is 5, where the linear form says 20."""
    jobs = [OnionJob("capped", 1.0, CappedUtility(10.0, 2.0, 0.1)),
            OnionJob("plain", 1.0, LinearUtility(10.0, 2.0, 0.1))]
    bank = _DeadlineBank(jobs, HORIZON)
    assert bank.raw_deadlines(1.0).tolist() == [5.0, 20.0]
    # Every level above the floor (the override's ``min(+inf, 5)`` at
    # the floor breaks the ceiling rule, which the bank enforces).
    top = jobs[0].utility.max_value()
    for level in (1e-300, 0.5, 2.5, 2.9, top, math.nextafter(top, math.inf),
                  top + 1.0):
        with strict():
            got = bank.raw_deadlines(level)
        assert got.tobytes() == stacked_deadline_for(jobs, level).tobytes()


# ---------------------------------------------------------------------------
# the property

BUDGETS = st.floats(0.0, 300.0)
PRIORITIES = st.one_of(st.just(0.0), st.floats(0.01, 5.0))
POSITIVE = st.floats(0.01, 5.0)
BETAS = st.floats(0.01, 8.0)


@st.composite
def utilities(draw):
    kind = draw(st.sampled_from(
        ["linear", "sigmoid", "constant", "step", "piecewise", "custom"]))
    if kind == "linear":
        return LinearUtility(draw(BUDGETS), draw(PRIORITIES), draw(BETAS))
    if kind == "sigmoid":
        return SigmoidUtility(draw(BUDGETS), draw(POSITIVE), draw(BETAS))
    if kind == "constant":
        return ConstantUtility(draw(PRIORITIES))
    if kind == "step":
        return StepUtility(draw(BUDGETS), draw(POSITIVE))
    if kind == "piecewise":
        values = sorted(draw(st.lists(PRIORITIES, min_size=1, max_size=4)),
                        reverse=True)
        times = sorted(draw(st.lists(BUDGETS, min_size=len(values),
                                     max_size=len(values), unique=True)))
        return PiecewiseUtility(zip(times, values))
    return HyperbolicUtility(draw(POSITIVE), draw(st.floats(0.5, 50.0)))


@settings(max_examples=150, deadline=None)
@given(utils=st.lists(utilities(), min_size=1, max_size=12),
       randoms=st.lists(st.floats(-2.0, 12.0), max_size=6))
def test_the_bank_is_deadline_for_stacked(utils, randoms):
    jobs = [OnionJob(f"j{i}", 1.0, u) for i, u in enumerate(utils)]
    bank = _DeadlineBank(jobs, HORIZON)
    for level in randoms + edge_levels(jobs):
        with strict():
            got = bank.raw_deadlines(level)
            want = stacked_deadline_for(jobs, level)
        assert got.tobytes() == want.tobytes(), level
        assert_no_interior_float_moved(jobs, level, got)
