"""A run of tied onion layers peeled in one step answers what the layers
would, one by one.

When a layer evaluates no staircase pass and ends where it started (its
``low`` is its seed), the layers after it ask the same probes and get
the same certified verdicts until a peel moves the active ceiling or
the active set's lowest ceiling, so ``solve_onion`` peels
that run at once.  The differential below compares the solve with one
whose ``_certify`` always abstains — no certificate, hence no run — and
with one that peels layer by layer (``_tied_run`` patched to return no
run), on fleets built to tie: a few utility classes shared by many
jobs, under a capacity loose enough that most layers are capped by the
classes' own ceilings.  The layer-by-layer solve must match in every
count, not only in the sum: a run that outlives ``probed_top`` answers
by certificate probes the layers would have evaluated, and changes no
target.  Hand mutations of ``_tied_run`` that it catches: dropping the
stop at the last job whose ceiling is ``probed_top``, skipping the
ceiling check, and peeling the run in ``max_values`` order
instead of index order.
"""

from __future__ import annotations

import bisect
import contextlib
import math
from typing import Iterator, List
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.onion as onion
from repro.core.onion import OnionJob, solve_onion
from repro.utility import (ConstantUtility, LinearUtility, SigmoidUtility,
                           StepUtility)
from repro.utility.base import UtilityFunction

from .test_onion_certificates import (HyperbolicUtility, abstaining,
                                      assert_same_solve)


class LooseCeilingUtility(HyperbolicUtility):
    """A user class whose declared ceiling is a loose upper bound.

    It never attains more than ``priority``, but ``max_value`` says
    ``ceiling``.  The solver reads ceilings and deadlines separately, so
    a run of tied layers that peels such a job moves the next layer's
    ceiling — and must stop there.
    """

    def __init__(self, priority: float, scale: float, ceiling: float) -> None:
        super().__init__(priority, scale)
        self.ceiling = ceiling

    def max_value(self) -> float:
        return self.ceiling

    def deadline_for(self, level: float) -> float:
        if level > self.priority:
            return -math.inf
        return super().deadline_for(level)


TOLERANCES = (0.05, 0.01)


@st.composite
def tied_classes(draw) -> List[UtilityFunction]:
    """Two to four shared utilities, one of them a user class.

    Priorities come from a short list and may sit a fraction of the
    tolerance apart, so several classes can turn -inf inside one
    layer's final bracket; budgets are far beyond the work, so most
    layers are capped by a class ceiling rather than by capacity.  The
    user class's deadline moves with the level, so a job peeled at the
    wrong level shows in its target.
    """
    offset = draw(st.sampled_from([0.0, 0.0, 0.002, 0.004]))

    def priority() -> float:
        return draw(st.sampled_from([1.0, 2.0, 3.0])) + draw(
            st.sampled_from([0.0, offset]))

    budget = float(draw(st.sampled_from([50, 200, 400])))
    builtins: List[UtilityFunction] = [
        LinearUtility(budget, priority(), draw(st.sampled_from([1e-4, 1e-3]))),
        SigmoidUtility(budget, priority(), draw(st.sampled_from([0.01, 0.05]))),
        ConstantUtility(priority()),
        StepUtility(budget, priority()),
    ]
    chosen = draw(st.lists(st.sampled_from(builtins), min_size=1,
                           max_size=3, unique_by=id))
    if draw(st.booleans()):
        custom: UtilityFunction = LooseCeilingUtility(
            priority() + draw(st.sampled_from([0.001, 0.003])), budget,
            draw(st.sampled_from([3.5, 5.0])))
    else:
        custom = HyperbolicUtility(priority(), budget)
    return chosen + [custom]


@st.composite
def tied_fleets(draw):
    classes = draw(tied_classes())
    count = draw(st.integers(12, 40))
    jobs = [OnionJob(
        f"j{i:02d}", float(draw(st.integers(1, 6))),
        classes[draw(st.integers(0, len(classes) - 1))],
        elapsed=draw(st.sampled_from([0.0, 0.0, 2.0, 5.5])),
        compensation=draw(st.sampled_from([0.0, 0.0, 0.5, 1.5])))
        for i in range(count)]
    capacity = draw(st.integers(4, 16))
    # A horizon past the budgets keeps level-dependent deadlines uncapped.
    horizon = onion.default_horizon(jobs, capacity) + draw(
        st.sampled_from([0, 100, 1000]))
    return jobs, capacity, horizon


def layer_by_layer():
    """Patch the runs out: every layer takes the ordinary loop."""
    return mock.patch.object(onion, "_tied_run",
                             lambda bank, active_idx, *_: active_idx[:0])


@contextlib.contextmanager
def counting_inserts() -> Iterator[List[int]]:
    """Count ``_PeeledLedger.commit`` calls: one per ordinary layer that
    peels one job, one per run of tied layers."""
    calls = [0]
    real = onion._PeeledLedger.commit

    def spy(self, completions, demands):
        calls[0] += 1
        return real(self, completions, demands)

    with mock.patch.object(onion._PeeledLedger, "commit", spy):
        yield calls


def test_tied_runs_equal_the_layer_by_layer_solve():
    runs: List[bool] = []

    @settings(max_examples=300, deadline=None)
    @given(case=tied_fleets(), tolerance=st.sampled_from(TOLERANCES))
    def check(case, tolerance):
        jobs, capacity, horizon = case
        with counting_inserts() as inserts:
            certified = solve_onion(jobs, capacity, tolerance=tolerance,
                                    horizon=horizon)
        with abstaining():
            evaluated = solve_onion(jobs, capacity, tolerance=tolerance,
                                    horizon=horizon)
        with layer_by_layer():
            layered = solve_onion(jobs, capacity, tolerance=tolerance,
                                  horizon=horizon)
        assert_same_solve(certified, evaluated)
        assert certified == layered
        # Without a run every layer but a closing batch peel commits once.
        runs.append(inserts[0] < certified.layers - 1)

    check()
    assert sum(runs) >= len(runs) // 4


def test_a_loose_ceiling_stops_the_run():
    """Five step jobs tie at priority 1; a user job among them turns -inf
    in the same bracket but declares the fleet's only ceiling of 5.  The
    run that peels it ends there: the next layer bisects up to 2."""
    jobs = ([OnionJob(f"s{k}", 2.0, StepUtility(400.0, 1.0)) for k in range(3)]
            + [OnionJob("loose", 2.0, LooseCeilingUtility(1.003, 400.0, 5.0))]
            + [OnionJob(f"s{k}", 2.0, StepUtility(400.0, 1.0)) for k in (3, 4)]
            + [OnionJob(f"c{k}", 2.0, ConstantUtility(2.0)) for k in range(3)])
    with counting_inserts() as inserts:
        certified = solve_onion(jobs, 4, tolerance=0.01)
    with abstaining():
        evaluated = solve_onion(jobs, 4, tolerance=0.01)
    with layer_by_layer():
        layered = solve_onion(jobs, 4, tolerance=0.01)
    assert_same_solve(certified, evaluated)
    assert certified == layered
    # Layer 1 bisects; 2 and 5 are fixed points, each followed by a run
    # (3-4, then 6); 7 peels the constants as a batch.
    assert [certified.targets[f"s{k}"].layer for k in range(5)] == [
        1, 2, 3, 5, 6]
    assert certified.targets["loose"].layer == 4
    assert inserts[0] == 5


@settings(max_examples=200, deadline=None)
@given(capacity=st.integers(1, 64),
       batches=st.lists(st.lists(st.tuples(st.integers(1, 30),
                                           st.floats(0.1, 50.0)),
                                 min_size=1, max_size=12),
                        max_size=8))
def test_ledger_commit_equals_one_at_a_time_inserts(capacity, batches):
    """One ``commit`` of a run leaves the order, and so the prefix sums,
    that inserting its pairs one by one after every equal time would."""
    ledger = onion._PeeledLedger(sum(map(len, batches)), capacity)
    times: List[float] = []
    demands: List[float] = []
    for batch in batches:
        ledger.commit(np.array([t for t, _ in batch], dtype=float),
                      np.array([d for _, d in batch]))
        for t, d in batch:
            at = bisect.bisect_right(times, t)
            times.insert(at, float(t))
            demands.insert(at, d)
        assert ledger.times.tolist() == times
        assert ledger.demands.tolist() == demands
        assert ledger.scaled.tolist() == [t * capacity for t in times]
