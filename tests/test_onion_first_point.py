"""A staircase pass whose first active job cannot fit alone stops there.

Before it sorts, merges or sums anything, a pass reads the level's
memoized deadlines: the active job with the earliest deadline (the
lowest index on a tie) is its first active point, and if that job
cannot fit even alone the pass fails at or before that point and names
it, whatever the peeled ledger merges in ahead of it
(``onion._first_point_failure``).  The differential below solves each
drawn fleet twice — once with that exit patched out, once with it — and
demands equal targets, layers and counts.  With the certificates on,
and also with them abstaining, which lets the passes meet the ``-inf``
deadlines that certificate (A) would otherwise answer.  It also asserts
the regimes were reached: the exit fired, fired at a ``-inf`` deadline,
fired with a peeled time tied with that first deadline, and fired with
a peeled time ahead of it.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterator, List
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.onion as onion
from repro.core.onion import OnionJob, solve_onion
from repro.utility import StepUtility

from .test_onion_certificates import (abstaining, fleets,
                                      small_capacity_bound_fleets)


@contextlib.contextmanager
def full_passes() -> Iterator[None]:
    """Patch the first-point exit out: every pass sorts and merges."""
    with mock.patch.object(onion, "_first_point_failure",
                           lambda *args: None):
        yield


@contextlib.contextmanager
def watching(seen: Dict[str, bool]) -> Iterator[None]:
    """Leave the exit in place; note which regimes it fired in."""
    real = onion._first_point_failure
    ledgers: List[onion._PeeledLedger] = []
    real_init = onion._PeeledLedger.__init__

    def init(self, *args):
        real_init(self, *args)
        ledgers.append(self)

    def spy(deadlines, active_idx, demands, capacity):
        named = real(deadlines, active_idx, demands, capacity)
        if named is not None:
            first = float(deadlines[active_idx].min()) * capacity
            peeled = ledgers[-1].scaled
            seen["fired"] = True
            seen["-inf"] |= first == -np.inf
            seen["tie"] |= bool(peeled.size) and first == peeled[0]
            seen["peeled first"] |= bool(peeled.size) and peeled[0] < first
        return named

    with mock.patch.object(onion, "_first_point_failure", spy), \
            mock.patch.object(onion._PeeledLedger, "__init__", init):
        yield


def assert_exit_changes_nothing(jobs, capacity, seen, **kwargs) -> None:
    for certificates in (contextlib.nullcontext, abstaining):
        with certificates(), watching(seen):
            early = solve_onion(jobs, capacity, **kwargs)
        with certificates(), full_passes():
            full = solve_onion(jobs, capacity, **kwargs)
        assert early.targets == full.targets
        assert early.layers == full.layers
        assert early.feasibility_checks == full.feasibility_checks
        assert early.certified_probes == full.certified_probes


def test_the_first_point_exit_equals_the_full_pass():
    seen = dict.fromkeys(["fired", "-inf", "tie", "peeled first"], False)

    @settings(max_examples=150, deadline=None)
    @given(jobs=fleets(), capacity=st.integers(1, 12),
           extra_horizon=st.sampled_from([0, 0, 5, 200]),
           tolerance=st.sampled_from([0.05, 0.01]))
    def loose(jobs, capacity, extra_horizon, tolerance):
        horizon = onion.default_horizon(jobs, capacity) + extra_horizon
        assert_exit_changes_nothing(jobs, capacity, seen,
                                    tolerance=tolerance, horizon=horizon)

    @settings(max_examples=150, deadline=None)
    @given(case=small_capacity_bound_fleets(),
           tolerance=st.sampled_from([0.05, 0.01]))
    def capacity_bound(case, tolerance):
        jobs, capacity, horizon = case
        assert_exit_changes_nothing(jobs, capacity, seen,
                                    tolerance=tolerance, horizon=horizon)

    loose()
    capacity_bound()
    assert all(seen.values()), seen


def test_a_job_that_cannot_fit_alone_is_named_without_a_sort():
    """Two jobs, one far too big for its deadline: the first pass below
    the ceiling fails at its first point, and no sorted view is built
    for that level."""
    jobs = [OnionJob("big", 50.0, StepUtility(2.0, 1.0)),
            OnionJob("small", 1.0, StepUtility(9.0, 1.0))]
    views = []
    real_view = onion._DeadlineBank.level_view

    def view(self, level):
        views.append(level)
        return real_view(self, level)

    with mock.patch.object(onion._DeadlineBank, "level_view", view):
        result = solve_onion(jobs, 2, tolerance=0.05, horizon=40)
    with full_passes():
        full = solve_onion(jobs, 2, tolerance=0.05, horizon=40)
    assert result.targets == full.targets
    assert result.feasibility_checks == full.feasibility_checks
    assert result.targets["big"].layer == 1
    assert len(views) < result.feasibility_checks
