"""The clock/event-source boundary: protocols, bit-identity, carve-out.

Three contracts pinned here:

* the :class:`~repro.core.clock.Clock` / EventSource plumbing itself
  (slot counting, due-slot ordering, lenient cancel delivery);
* **bit-identity**: a simulator driven externally — explicit
  :class:`SimulatedClock` plus :class:`QueueEventSource` delivering
  submissions at their arrival slots — produces byte-identical results
  and decision streams to the classic upfront-submission ``run()`` loop
  (the tentpole refactor must be unobservable from inside);
* the **wall-clock carve-out**: ``repro.service.clock`` is the only
  sanctioned wall-clock reader.  The same source forced into the
  deterministic ``core`` classification fires RL002, proving the
  exemption comes from the package boundary, not a weakened rule.
"""

from __future__ import annotations

import asyncio
import math
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator, run_simulation
from repro.cluster.job import JobSpec
from repro.core.clock import (CancelEvent, QueueEventSource, SimulatedClock,
                              SubmitEvent)
from repro.lint.config import DETERMINISTIC_PACKAGES, LintConfig
from repro.lint.framework import lint_file
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.rush import RushScheduler
from repro.service.clock import RealTimeClock
from repro.utility.config import utility_from_config

SERVICE_CLOCK_PATH = str(
    Path(__file__).parent.parent / "src" / "repro" / "service" / "clock.py")


# ---------------------------------------------------------------------------
# Clock / event-source primitives
# ---------------------------------------------------------------------------


def test_simulated_clock_counts_slots():
    clock = SimulatedClock()
    assert clock.slot == 0
    assert clock.advance() == 1
    assert clock.slot == 1
    assert SimulatedClock(start=7).slot == 7


def test_queue_event_source_orders_by_due_then_push_order():
    source = QueueEventSource()
    source.push(CancelEvent("late"), due=5)
    source.push(CancelEvent("a"), due=2)
    source.push(CancelEvent("b"), due=2)
    source.push(CancelEvent("now"))  # due < 0: next poll
    assert [e.job_id for e in source.poll(0)] == ["now"]
    assert source.poll(1) == []
    assert [e.job_id for e in source.poll(3)] == ["a", "b"]
    assert len(source) == 1
    assert [e.job_id for e in source.poll(10)] == ["late"]
    assert source.poll(10) == []


def test_decision_recording_is_off_by_default():
    spec = _spec("j0", 0, (2, 2), 10.0)
    sim = ClusterSimulator(2, FifoScheduler())
    sim.submit(spec)
    sim.run()
    assert sim.decisions == []


# ---------------------------------------------------------------------------
# Bit-identity: external driving == classic batch loop
# ---------------------------------------------------------------------------


def _spec(job_id: str, arrival: int, durations, budget: float) -> JobSpec:
    return JobSpec(
        job_id=job_id, arrival=arrival, task_durations=tuple(durations),
        utility=utility_from_config(
            {"class": "sigmoid", "budget": budget, "priority": 1.0}),
        budget=budget)


@st.composite
def workloads(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    specs = []
    for k in range(n):
        durations = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
        arrival = draw(st.integers(0, 12))
        budget = float(draw(st.integers(2, 30)))
        specs.append(_spec(f"j{k}", arrival, durations, budget))
    return specs


def _drive_externally(specs, capacity, scheduler, seed):
    """Deliver every submission through the event source, step by hand."""
    sim = ClusterSimulator(capacity, scheduler, seed=seed,
                           clock=SimulatedClock(), events=QueueEventSource(),
                           record_decisions=True)
    for spec in specs:
        sim._events.push(SubmitEvent(spec), due=spec.arrival)
    guard = 0
    while (len(sim._events) or sim._pending_arrivals
           or sim.active_jobs) and guard < 5000:
        sim.step()
        guard += 1
    assert guard < 5000, "externally driven run failed to converge"
    return sim


def _comparable(result) -> dict:
    data = result.to_dict()
    # planner_seconds is wall-clock solver timing — excluded from the
    # bit-identity contract by design (RL002 allows monotonic budgets).
    data.pop("planner_seconds", None)
    return data


@settings(max_examples=25, deadline=None)
@given(specs=workloads(), seed=st.integers(0, 3),
       scheduler_cls=st.sampled_from([FifoScheduler, EdfScheduler]))
def test_external_clock_driving_is_bit_identical(specs, seed, scheduler_cls):
    batch = run_simulation(specs, 3, scheduler_cls(), seed=seed)
    driven = _drive_externally(specs, 3, scheduler_cls(), seed=seed)
    assert _comparable(driven._result()) == _comparable(batch)


def test_external_driving_matches_rush_decisions():
    """Same property under the full planning stack, decision stream pinned."""
    specs = [_spec("a", 0, (3, 2, 2), 12.0), _spec("b", 1, (4,), 8.0),
             _spec("c", 2, (2, 2), 6.0), _spec("d", 6, (1, 5), 20.0)]
    reference = ClusterSimulator(2, RushScheduler(), seed=1,
                                 record_decisions=True)
    for spec in specs:
        reference.submit(spec)
    ref_result = reference.run()
    driven = _drive_externally(specs, 2, RushScheduler(), seed=1)
    assert driven.decisions == reference.decisions
    assert _comparable(driven._result()) == _comparable(ref_result)


def test_cancel_event_is_lenient_but_direct_cancel_is_strict():
    spec = _spec("gone", 0, (2,), 5.0)
    sim = ClusterSimulator(1, FifoScheduler(), events=QueueEventSource())
    sim.submit(spec)
    sim._events.push(CancelEvent("never-existed"))  # lenient: no raise
    sim.step()
    assert sim.has_job("gone") and not sim.cancelled_jobs
    from repro.errors import SimulationError

    with pytest.raises(SimulationError):
        sim.cancel_job("never-existed")
    assert sim.cancel_job("gone") is True
    assert [j.job_id for j in sim.cancelled_jobs] == ["gone"]
    # cancelled jobs never appear in the run's records
    assert [r.job_id for r in sim._result().records] == []


# ---------------------------------------------------------------------------
# RealTimeClock: protocol conformance and pacing
# ---------------------------------------------------------------------------


def test_real_time_clock_advance_never_sleeps():
    clock = RealTimeClock(slot_seconds=60.0)
    started = time.monotonic()
    for _ in range(1000):
        clock.advance()
    assert clock.slot == 1000
    assert time.monotonic() - started < 1.0  # no pacing inside advance()


def test_real_time_clock_paces_slot_boundaries():
    clock = RealTimeClock(slot_seconds=0.02)

    async def run_three_slots():
        start = time.monotonic()
        for _ in range(3):
            await clock.wait_for_next_slot()
            clock.advance()
        return time.monotonic() - start

    elapsed = asyncio.run(run_three_slots())
    assert elapsed >= 0.05  # three 20ms boundaries, minus scheduling slack
    assert clock.slot == 3


def test_real_time_clock_rebase_prevents_catchup_spin():
    clock = RealTimeClock(slot_seconds=10.0)
    for _ in range(500):  # instant replay fast-forward
        clock.advance()
    clock.rebase()

    async def next_boundary_is_in_the_future():
        # After rebase the next boundary is ~10s away; the wait must not
        # return immediately, so poll it with a tiny timeout instead.
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(clock.wait_for_next_slot(), timeout=0.01)

    asyncio.run(next_boundary_is_in_the_future())
    assert math.isclose(clock.uptime_seconds(), 0.0, abs_tol=1.0)


def test_real_time_clock_yields_even_when_behind_schedule():
    """A loop running behind must still cooperate with the event loop.

    When the next boundary is already in the past, ``wait_for_next_slot``
    has nothing to sleep for — but it must still award the event loop a
    turn, or a catch-up ticker would starve every other handler (the
    daemon's HTTP requests run on the same loop).
    """
    clock = RealTimeClock(slot_seconds=0.001)

    async def catch_up_loop():
        await asyncio.sleep(0.02)  # fall many boundaries behind
        witness = asyncio.get_running_loop().create_task(asyncio.sleep(0))
        for _ in range(5):
            await clock.wait_for_next_slot()
            clock.advance()
        ran_during_loop = witness.done()
        await witness
        return ran_during_loop

    assert asyncio.run(catch_up_loop())


def test_real_time_clock_rejects_nonpositive_slot():
    with pytest.raises(ValueError):
        RealTimeClock(slot_seconds=0.0)


@pytest.mark.parametrize("slot_seconds", [math.nan, math.inf])
def test_real_time_clock_rejects_non_finite_slot(slot_seconds):
    """A NaN slot would make every wait a ``sleep(nan)``; an infinite
    one never ticks."""
    with pytest.raises(ValueError):
        RealTimeClock(slot_seconds=slot_seconds)


# ---------------------------------------------------------------------------
# The RL002 carve-out: service is exempt, core is not — and the
# exemption is positional, not a hole in the rule.
# ---------------------------------------------------------------------------


def test_service_is_not_a_deterministic_package():
    assert "service" not in DETERMINISTIC_PACKAGES
    assert {"core", "cluster"} <= DETERMINISTIC_PACKAGES


def test_service_clock_is_exempt_in_its_own_package():
    findings = lint_file(SERVICE_CLOCK_PATH, config=LintConfig())
    assert [f for f in findings if f.rule_id == "RL002"] == []


def test_service_clock_source_fires_rl002_when_forced_into_core():
    """The same file under the core classification is a violation.

    This pins that ``repro.service`` stays the *only* sanctioned
    wall-clock reader: moving this code into a deterministic package
    (or widening the carve-out) turns the suite red.
    """
    findings = lint_file(SERVICE_CLOCK_PATH,
                         config=LintConfig(package_override="core"))
    wall = [f for f in findings if f.rule_id == "RL002"]
    assert len(wall) >= 2  # started_at stamp + wall_time()
    assert all("wall clock" in f.message for f in wall)


def test_core_clock_module_is_wall_clock_free():
    core_clock = str(Path(__file__).parent.parent
                     / "src" / "repro" / "core" / "clock.py")
    findings = lint_file(core_clock, config=LintConfig())
    assert [f for f in findings if f.rule_id == "RL002"] == []
    # and it classifies as deterministic in place, so RL002 was applied
    findings_forced = lint_file(core_clock,
                                config=LintConfig(package_override="core"))
    assert [f for f in findings_forced if f.rule_id == "RL002"] == []
