"""The onion's feasibility certificates are exact, not close.

``repro.core.onion._certify`` answers a staircase probe without running
the pass when the answer is already known (an unreachable level; a level
whose slack margin survived the last peel; the level the layer's last
infeasible pass ran at, asked again by the bottleneck probe).  Every
test here compares a normal solve against one whose ``_certify`` always
abstains — the solver the certificates were put in front of — and
demands *equal* results, not results within a tolerance.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path
from typing import List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.onion as onion
from repro import obs
from repro.cli import main as rush_main
from repro.cluster import run_simulation
from repro.core.onion import OnionJob, OnionResult, solve_onion
from repro.errors import ConfigurationError
from repro.schedulers import RushScheduler
from repro.ui.status import render_profile_text
from repro.utility import (ConstantUtility, LinearUtility, PiecewiseUtility,
                           SigmoidUtility, StepUtility)
from repro.utility.base import UtilityFunction

from .test_obs import small_specs

GOLDEN = Path(__file__).parent / "golden"


class HyperbolicUtility(UtilityFunction):
    """A user-defined class with no closed form: the bank asks its
    bisecting ``deadline_for`` one job at a time."""

    def __init__(self, priority: float, scale: float) -> None:
        self.priority = priority
        self.scale = scale

    def value(self, completion_time: float) -> float:
        return self.priority / (1.0 + max(completion_time, 0.0) / self.scale)

    def max_value(self) -> float:
        return self.priority

    def min_value(self) -> float:
        return 0.0


def abstaining():
    """Patch the certificates out: every probe runs its staircase pass."""
    return mock.patch.object(onion, "_certify", lambda *args: None)


@contextlib.contextmanager
def recording():
    """Leave the certificates in place; collect ``(args, verdict)`` pairs."""
    calls = []
    real = onion._certify

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    with mock.patch.object(onion, "_certify", spy):
        yield calls


def solve_both(jobs, capacity, **kwargs):
    certified = solve_onion(jobs, capacity, **kwargs)
    with abstaining():
        evaluated = solve_onion(jobs, capacity, **kwargs)
    return certified, evaluated


def assert_same_solve(certified: OnionResult, evaluated: OnionResult) -> None:
    assert certified.targets == evaluated.targets
    assert certified.layers == evaluated.layers
    assert certified.horizon == evaluated.horizon
    assert evaluated.certified_probes == 0
    # Layer by layer the two solves ask the same probes; a certificate
    # only changes who answers.
    assert (certified.feasibility_checks + certified.certified_probes
            == evaluated.feasibility_checks)


# ---------------------------------------------------------------------------
# (a) the differential
# ---------------------------------------------------------------------------

PRIORITIES = st.sampled_from([0.5, 1.0, 2.0, 3.0])


@st.composite
def utilities(draw, kind: Optional[str] = None):
    kind = kind or draw(st.sampled_from(
        ["linear", "sigmoid", "constant", "step", "custom"]))
    priority = draw(PRIORITIES)
    budget = float(draw(st.integers(1, 40)))
    if kind == "linear":
        return LinearUtility(budget, priority, draw(st.sampled_from(
            [0.05, 0.2, 1.0])))
    if kind == "sigmoid":
        return SigmoidUtility(budget, priority, draw(st.sampled_from(
            [0.05, 0.5, 2.0])))
    if kind == "constant":
        return ConstantUtility(priority)
    if kind == "step":
        return StepUtility(budget, priority)
    return HyperbolicUtility(priority, budget)


@st.composite
def fleets(draw) -> List[OnionJob]:
    count = draw(st.integers(2, 9))
    integer_demands = draw(st.booleans())
    custom_at = draw(st.integers(0, count - 1))
    jobs = []
    for i in range(count):
        if integer_demands:
            demand = float(draw(st.integers(0, 30)))
        else:
            demand = draw(st.floats(0.0, 30.0, allow_nan=False))
        jobs.append(OnionJob(
            f"j{i}", demand,
            draw(utilities("custom" if i == custom_at else None)),
            elapsed=draw(st.sampled_from([0.0, 0.0, 1.5, 7.0])),
            compensation=draw(st.sampled_from([0.0, 0.0, 0.75, 2.0]))))
    return jobs


@settings(max_examples=300, deadline=None)
@given(jobs=fleets(), capacity=st.integers(1, 12),
       extra_horizon=st.sampled_from([0, 0, 5, 200]),
       tolerance=st.sampled_from([0.05, 0.01, 1e-3]),
       drift=st.sampled_from([1.0, 1.0, 0.9, 1.3]))
def test_certified_solve_equals_the_evaluated_solve(
        jobs, capacity, extra_horizon, tolerance, drift):
    # ``drift`` perturbs the fleet itself: off-grid demands move the
    # deadlines the certificates have to predict.
    jobs = [OnionJob(job.job_id, job.demand * drift, job.utility,
                     job.elapsed, job.compensation) for job in jobs]
    horizon = onion.default_horizon(jobs, capacity) + extra_horizon
    certified, evaluated = solve_both(jobs, capacity, tolerance=tolerance,
                                      horizon=horizon)
    assert_same_solve(certified, evaluated)


def test_custom_class_ahead_of_a_builtin_is_still_the_bottleneck():
    """At an unreachable level the pass names the first -inf deadline in
    index order — here a custom job the thresholds know nothing about."""
    jobs = [OnionJob("custom", 4.0, HyperbolicUtility(1.0, 10.0)),
            OnionJob("builtin", 4.0, StepUtility(20.0, 1.0)),
            OnionJob("top", 4.0, StepUtility(20.0, 3.0))]
    certified, evaluated = solve_both(jobs, 2, tolerance=0.01)
    assert_same_solve(certified, evaluated)
    assert certified.certified_probes > 0
    assert certified.targets["custom"].layer == 1


@pytest.mark.parametrize("custom", [
    HyperbolicUtility(1.0, 10.0),
    PiecewiseUtility([(0.0, 1.0), (30.0, 0.0)]),
], ids=["hyperbolic", "piecewise"])
def test_a_level_above_a_user_class_ceiling_is_certified(custom):
    """(A) reads every job's ``max_value()``, user classes included: a
    bisection probe above the user job's ceiling of 1 is answered
    without a pass, as it is for a built-in class."""
    jobs = [OnionJob("custom", 4.0, custom)] + [
        OnionJob(f"s{k}", 4.0, StepUtility(20.0, 3.0)) for k in range(3)]
    with recording() as calls:
        certified = solve_onion(jobs, 2, tolerance=0.01)
    with abstaining():
        evaluated = solve_onion(jobs, 2, tolerance=0.01)
    assert_same_solve(certified, evaluated)
    # The user job's ceiling is the active minimum, exactly.
    above = [verdict for (level, lowest_ceiling, *_), verdict in calls
             if lowest_ceiling == 1.0  # rushlint: disable=RL003 (exact ceiling)
             and level > 1.0]
    assert len(above) >= 3 and set(above) == {False}
    assert certified.targets["custom"].layer == 1


@st.composite
def small_capacity_bound_fleets(draw):
    """5-25 jobs of every class, capacity sized so the default horizon is
    at most 8 slots: the regime of a small fleet on a busy cluster, where
    most layers bisect and peel one job into a non-empty ledger."""
    count = draw(st.integers(5, 25))
    custom_at = draw(st.integers(0, count - 1))
    jobs = [OnionJob(
        f"j{i}", float(draw(st.integers(1, 12))),
        draw(utilities("custom" if i == custom_at else None)),
        elapsed=draw(st.sampled_from([0.0, 0.0, 1.5, 3.0])),
        compensation=draw(st.sampled_from([0.0, 0.0, 0.75])))
        for i in range(count)]
    target = draw(st.integers(2, 8))
    total = sum(job.demand for job in jobs)
    capacity = max(1, -(-int(total) // (target - 1)))
    horizon = onion.default_horizon(jobs, capacity)
    horizon += draw(st.integers(0, 8 - horizon))
    return jobs, capacity, horizon


def test_bottleneck_probe_certificate_on_small_capacity_bound_fleets():
    """Certificate (C) — the bottleneck probe re-reads the infeasible pass
    the bisection just ran — changes who answers, never the answer, and
    it does fire on drawn fleets with a ledger to merge."""
    fired: List[bool] = []

    @settings(max_examples=150, deadline=None)
    @given(case=small_capacity_bound_fleets(),
           tolerance=st.sampled_from([0.05, 0.01]))
    def check(case, tolerance):
        jobs, capacity, horizon = case
        assert horizon <= 8
        events = []
        real_certify, real_bottleneck = onion._certify, onion._bottleneck

        def certify(*args):
            verdict = real_certify(*args)
            level, _, _, _, failed_at = args
            events.append(("C", verdict is False and level == failed_at))
            return verdict

        def bottleneck(slack, order, sel, act_pos, fro_pos):
            events.append(("merged", act_pos is not None
                           or fro_pos is not None))
            return real_bottleneck(slack, order, sel, act_pos, fro_pos)

        with mock.patch.object(onion, "_certify", certify), \
                mock.patch.object(onion, "_bottleneck", bottleneck):
            certified = solve_onion(jobs, capacity, tolerance=tolerance,
                                    horizon=horizon)
        with abstaining():
            evaluated = solve_onion(jobs, capacity, tolerance=tolerance,
                                    horizon=horizon)
        assert_same_solve(certified, evaluated)
        fired.append(any(
            first == ("C", True) and second == ("merged", True)
            for first, second in zip(events, events[1:])))

    check()
    assert any(fired)


# ---------------------------------------------------------------------------
# (b) the golden trace: only *which* probes were evaluated changed
# ---------------------------------------------------------------------------

def test_golden_trace_with_abstaining_certificates_counts_the_parents_passes(
        tmp_path, capsys):
    """``rush plan`` on the golden trace evaluated 58 passes before the
    certificates existed; patched out, it still does — and the plan JSON
    differs from the committed one in that one number."""
    out = tmp_path / "plan.json"
    with abstaining():
        assert rush_main(["plan", "--trace", str(GOLDEN / "trace.jsonl"),
                          "--json", str(out)]) == 0
    capsys.readouterr()
    evaluated = json.loads(out.read_text())
    golden = json.loads((GOLDEN / "plan.json").read_text())
    assert evaluated["feasibility_checks"] == 58
    assert golden["feasibility_checks"] < 58
    evaluated["feasibility_checks"] = golden["feasibility_checks"]
    assert evaluated == golden


# ---------------------------------------------------------------------------
# (c) an exactly tight instance: the margin certificate abstains
# ---------------------------------------------------------------------------

def test_slack_zero_falls_back_to_the_pass():
    """Forty unit-priority jobs that fill the cluster exactly up to each
    deadline (slack 0 at the level they peel at) under ten looser jobs of
    priority 2.  Every layer's seed probe repeats a level whose carried
    margin is 0; the instance is large enough that the rounding bound
    exceeds the pass's 1e-9 tolerance, so certificate (B) must abstain."""
    capacity = 10
    tight = [OnionJob(f"t{k:02d}", 500.0, StepUtility(50.0 * (k + 1), 1.0))
             for k in range(40)]
    loose = [OnionJob(f"l{k}", 10.0, StepUtility(4000.0, 2.0))
             for k in range(10)]
    jobs = tight + loose
    with recording() as calls:
        certified = solve_onion(jobs, capacity, tolerance=0.01, horizon=4100)
    with abstaining():
        evaluated = solve_onion(jobs, capacity, tolerance=0.01, horizon=4100)
    assert_same_solve(certified, evaluated)
    verdicts = [verdict for _, verdict in calls]
    assert True not in verdicts  # (B) never answered ...
    assert certified.certified_probes == verdicts.count(False) > 0  # (A), (C) did
    # ... although it was asked, layer after layer, about the level it
    # carried — with a margin of exactly 0 — and abstained each time.
    asked = [verdict for (level, _, carried, *_), verdict in calls
             if carried is not None and carried == (level, 0.0)]
    assert len(asked) >= 39 and set(asked) == {None}
    assert [certified.targets[job.job_id].target_completion
            for job in tight] == [50 * (k + 1) for k in range(40)]


def test_margin_certificate_answers_when_there_is_room():
    """The same shape with room to spare: (B) carries the seed level.

    (B) answers the seed probe of the layer that starts a tied run; the
    run asks ``_certify`` that layer's probes once, and
    ``certified_probes`` still counts every replayed layer's."""
    jobs = ([OnionJob(f"t{k:02d}", 400.0, StepUtility(50.0 * (k + 1), 1.0))
             for k in range(40)]
            + [OnionJob("top", 10.0, StepUtility(4000.0, 2.0))])
    with recording() as calls:
        certified = solve_onion(jobs, 10, tolerance=0.01, horizon=4100)
    with abstaining():
        evaluated = solve_onion(jobs, 10, tolerance=0.01, horizon=4100)
    assert_same_solve(certified, evaluated)
    seed_answers = [args for args, verdict in calls if verdict is True]
    assert seed_answers
    assert all(args[2] is not None and args[0] == args[2][0]
               for args in seed_answers)
    # Far more probes counted than asked: 399 against 32 here.
    assert certified.certified_probes > len(calls) + 30


# ---------------------------------------------------------------------------
# (d) the probe budget of a ceiling-capped fleet
# ---------------------------------------------------------------------------

def test_loose_fleet_in_three_classes_plans_within_two_passes_per_layer():
    """Sixty sigmoid jobs with budgets far beyond their work, in three
    priority classes: two thirds of the layers are capped by a job's own
    ceiling, and must not pay a bisection each."""
    jobs = [OnionJob(f"j{k:02d}", 40.0 + k,
                     SigmoidUtility(600.0 + 7.0 * k, float(1 + k % 3), 0.05))
            for k in range(60)]
    result = solve_onion(jobs, 8, tolerance=0.05)
    assert result.layers >= 40
    assert result.feasibility_checks <= 2 * result.layers
    assert result.certified_probes > result.feasibility_checks


# ---------------------------------------------------------------------------
# Unbounded utilities are refused at the door
# ---------------------------------------------------------------------------

class ReciprocalUtility(UtilityFunction):
    """``U(t) = 1/t``: a legal-looking subclass with no ceiling."""

    def value(self, completion_time: float) -> float:
        return 1.0 / completion_time if completion_time > 0 else float("inf")

    def max_value(self) -> float:
        return float("inf")

    def min_value(self) -> float:
        return 0.0


class BottomlessUtility(HyperbolicUtility):
    def min_value(self) -> float:
        return float("nan")


@pytest.mark.parametrize("utility, method", [
    (ReciprocalUtility(), "max_value"),
    (BottomlessUtility(1.0, 5.0), "min_value"),
])
def test_non_finite_utility_bound_is_a_configuration_error(utility, method):
    """Used to bisect forever (``mid = inf``); the refusal comes before
    the first probe, so it is immediate."""
    jobs = [OnionJob("ok", 10.0, LinearUtility(20.0, 1.0)),
            OnionJob("wild", 10.0, utility),
            OnionJob("wild2", 10.0, utility)]
    started = time.perf_counter()
    with pytest.raises(ConfigurationError) as raised:
        solve_onion(jobs, 1)
    assert time.perf_counter() - started < 1.0
    assert "'wild'" in str(raised.value) and method in str(raised.value)


# ---------------------------------------------------------------------------
# The counters: evaluated and certified, end to end
# ---------------------------------------------------------------------------

def test_certified_probes_reach_the_profile_and_the_metrics():
    handle = obs.enable(trace=False, metrics=True, ledger=False)
    scheduler = RushScheduler()
    run_simulation(small_specs(seed=11), 4, scheduler, seed=11,
                   max_slots=20_000)
    snapshot = handle.metrics.snapshot()
    obs.reset()
    profile = scheduler.profile()
    assert profile["certified_probes"] > 0
    for series, key in (
            ("rush_onion_certified_probes_total", "certified_probes"),
            ("rush_onion_feasibility_checks_total", "feasibility_checks")):
        assert snapshot[series]["values"] == [[[], profile[key]]]
    assert (f"{profile['feasibility_checks']} feasibility check(s) evaluated, "
            f"{profile['certified_probes']} certified"
            in render_profile_text(profile))
