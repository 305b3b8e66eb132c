"""One allocation per scheduling event, granting what one grant at a time did.

The simulator asks :meth:`Scheduler.allocate` once per event.  RUSH
computes the event's whole grant list from one plan; these tests hold it
to the per-container rule it replaced:

* a property: ``RushScheduler.allocate(free)`` equals a replay of the
  old one-grant-per-call rule (copied below as the oracle), on fake
  candidates with random planned shares, ties, pending counts that run
  out, more free containers than pending tasks, and no plan at all;
* per-policy pins: the grant stream of every ``POLICIES`` entry, fault
  free and under the chaos library's plan, is the one the per-container
  loop produced;
* RUSH plans exactly once per event that has a free container and a
  pending job, and never otherwise.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.faults import default_chaos_plan
from repro.faults.plan import FaultPlan
from repro.schedulers import POLICIES, RushScheduler
from repro.schedulers.edf import edf_key
from repro.service import canonical_digest
from repro.utility import LinearUtility
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


# -- (a) the heap and the two sorts replay the per-grant rule --------------


class _Job:
    def __init__(self, job_id, pending, running, arrival, deadline, budget):
        self.job_id = job_id
        self.pending_count = pending
        self.running_count = running
        self.arrival = arrival
        self.spec = SimpleNamespace(deadline=deadline)
        self.utility = LinearUtility(budget, 1.0)

    def elapsed(self, now):
        return max(0, now - self.arrival)


class _Plan:
    def __init__(self, desired, targets):
        self._desired = desired
        self.jobs = {job_id: SimpleNamespace(target_completion=target)
                     for job_id, target in targets.items()}

    def next_slot_allocation(self):
        return dict(self._desired)


def _per_grant_rule(sim, plan):
    """The rule ``RushScheduler.select_job`` applied once per free
    container before ``allocate`` existed, verbatim but for the plan
    argument (it then came from the per-slot plan cache)."""
    candidates = [job for job in sim.active_jobs if job.pending_count > 0]
    if not candidates:
        return None
    if plan is None:
        return min(candidates, key=edf_key).job_id
    desired = plan.next_slot_allocation()
    best_id = None
    best_gap = 0.0
    for job in candidates:
        gap = desired.get(job.job_id, 0) - job.running_count
        if gap > best_gap + 1e-12:
            best_gap = gap
            best_id = job.job_id
    if best_id is not None:
        return best_id
    now = sim.now
    def fallback(job):
        target = plan.jobs[job.job_id].target_completion \
            if job.job_id in plan.jobs else math.inf
        elapsed = job.elapsed(now)
        recoverable = (job.utility.value(elapsed)
                       - job.utility.value(elapsed + target)
                       if math.isfinite(target) else 0.0)
        deadline = job.spec.deadline
        return (target, -recoverable,
                deadline if math.isfinite(deadline) else math.inf,
                job.arrival, job.job_id)
    return min(candidates, key=fallback).job_id


def _oracle(sim, plan, free):
    """Grant one container at a time, launching each grant before the
    next pick, as the simulator's per-container loop did."""
    by_id = {job.job_id: job for job in sim.active_jobs}
    grants = []
    while len(grants) < free:
        job_id = _per_grant_rule(sim, plan)
        if job_id is None:
            break
        grants.append(job_id)
        by_id[job_id].pending_count -= 1
        by_id[job_id].running_count += 1
    return grants


_jobs = st.lists(
    st.tuples(st.integers(0, 4),                       # pending
              st.integers(0, 4),                       # running
              st.integers(0, 4),                       # desired
              st.integers(0, 3),                       # arrival (ties)
              st.sampled_from([5.0, 9.0, math.inf, math.nan]),  # deadline
              st.sampled_from([None, 2, 6]),           # plan target
              st.sampled_from([3.0, 8.0, 40.0])),      # utility budget
    min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(jobs=_jobs, free=st.integers(1, 30), planless=st.booleans(),
       now=st.integers(0, 6))
def test_allocate_replays_the_per_grant_rule(jobs, free, planless, now):
    def build():
        return [_Job(f"j{i}", pending, running, arrival, deadline, budget)
                for i, (pending, running, _, arrival, deadline, _, budget)
                in enumerate(jobs)]
    desired = {f"j{i}": row[2] for i, row in enumerate(jobs) if row[2]}
    targets = {f"j{i}": row[5] for i, row in enumerate(jobs)
               if row[5] is not None}
    plan = None if planless else _Plan(desired, targets)

    scheduler = RushScheduler()
    scheduler._sim = SimpleNamespace(active_jobs=build(), now=now)
    scheduler._current_plan = lambda: plan
    got = list(scheduler.allocate(free))

    expected = _oracle(SimpleNamespace(active_jobs=build(), now=now),
                       plan, free)
    assert got == expected
    assert list(scheduler.allocate(1)) == expected[:1]
    assert scheduler.select_job() == (expected[0] if expected else None)


# -- (b) grant-stream pins for every policy --------------------------------

#: ``canonical_digest`` of each grant stream and its length.  Recorded at
#: commit 979a1c6, where the simulator asked ``select_job`` once per free
#: container and RUSH cached its plan per (slot, completions) epoch; the
#: one-allocation path must reproduce every one.  "edf_floor" drives RUSH
#: through depth-2 solver faults, so its greedy-EDF floor grants too.  The
#: RUSH rows were re-recorded when one Moore–Hodgson pass replaced the
#: onion's floor lookahead: this workload's plans reach the utility floor,
#: so which jobs stay there changed on purpose.
GRANT_STREAMS = {
    ("rush", "none"): ("7488e03065009d6f9f6c8da06746f99132b46c8350ddcc9a08426bd4367c2c7a", 251),
    ("rush", "1"): ("e2a313e836bc77184ead9a92ac264e4f9ba32f1a7a01ddffc332dac2b662d3bd", 283),
    ("rush", "3"): ("f94239a1d9a63fed679ed71123d483c6d67e245863c9eb11dcf00013289405e8", 375),
    ("rush", "edf_floor"): ("bea49575b1cd8f3bdbce521d5bf8de9c47a9cc3b310f6987ba31abddbbe432d9", 251),
    ("fifo", "none"): ("060b3d5105414ed98207fe84ccc74bb9d96df7d72c588fc76575d6ec2872c37a", 251),
    ("fifo", "1"): ("ccbf449f6ec475e13b63acd56cebe9d38e63137d69099818b463fb4194bbc874", 296),
    ("fifo", "3"): ("a7d4a1973c14025bfe9cb49a6acaa77b1fab28592aef61693918b7a9188c7668", 379),
    ("edf", "none"): ("42c3db84be4c08f42313d836a184acd8dc93e6511c73b40aa6f9865a95e1cdf2", 251),
    ("edf", "1"): ("a0c05858aa6206b02700f293e7aa7309da0a482d3e7bb82334645fe827f1aafd", 289),
    ("edf", "3"): ("563c10f897a07b63d7caac3a7cc4e63ef37a89355091a9cfbc45fafd0cda8a47", 375),
    ("fair", "none"): ("5b40623d8e26080d1d9801b3140eec147d1c0138abcf68531da070799593628d", 251),
    ("fair", "1"): ("ab84ec23546928aa1387f867abfa54937462546810845ba25bc748af171c0e4c", 287),
    ("fair", "3"): ("3b24061fb5d8c7c016ec52f6a408236d099e58297dd60eb056214a2ed027fbde", 382),
    ("capacity", "none"): ("5955a1c7cc3d754457dbff6285f1a9a1e006a86038d0bf981da550c2eb4ec6b6", 251),
    ("capacity", "1"): ("2384bae946b359657991c55164a2c541f9815aa54362f6ffc374baedd47f9d52", 289),
    ("capacity", "3"): ("6e845cf58bce2c126b213ceedf48d5599aef80e8be664696ab81bca73af3bae9", 378),
    ("rrh", "none"): ("dc770cb3164399a4826821d9c605ae1cf034ebd756789f55997af9aa1e7eb8e6", 251),
    ("rrh", "1"): ("994531d39fd805bbe7a3f2e36862dd4e296d6670c9c2b381ca036f5bba620b7e", 291),
    ("rrh", "3"): ("61298602a3902266816d8a98ea8bdd7d097b91ad4b37dbd5cbf1445bd5b246b7", 395),
}


def _fault_plan(faults: str) -> FaultPlan:
    if faults == "none":
        return FaultPlan.from_spec({"injectors": []})
    if faults == "edf_floor":
        return FaultPlan.from_spec({"seed": 0, "injectors": [
            {"kind": "solver_budget", "rate": 0.3, "depth": 2}]})
    return default_chaos_plan(seed=0, intensity=float(faults))


def _simulator(policy: str, faults: str) -> ClusterSimulator:
    specs = WorkloadGenerator(WorkloadConfig(
        n_jobs=16, capacity=10, mean_interarrival=5.0,
        size_gb_range=(0.5, 2.0), time_scale=0.25), seed=5).generate()
    build, _ = POLICIES[policy]
    sim = ClusterSimulator(10, build(), seed=0, faults=_fault_plan(faults),
                           record_decisions=True)
    for spec in specs:
        sim.submit(spec)
    return sim


def test_every_policy_is_pinned():
    assert {policy for policy, _ in GRANT_STREAMS} == set(POLICIES)


@pytest.mark.parametrize("policy, faults", sorted(GRANT_STREAMS))
def test_grant_stream_is_unchanged(policy, faults):
    sim = _simulator(policy, faults)
    result = sim.run(max_slots=3000)
    stream = [list(decision) for decision in sim.decisions]
    assert (canonical_digest(stream), len(stream)) \
        == GRANT_STREAMS[policy, faults]
    assert result.scheduling_decisions == len(stream)  # grants, nothing else


# -- (c) one plan per event ------------------------------------------------


@pytest.mark.parametrize("faults", ["none", "3", "edf_floor"])
def test_rush_plans_once_per_event_with_work(faults, monkeypatch):
    sim = _simulator("rush", faults)
    scheduler = sim.scheduler
    plans = []
    current_plan = scheduler._current_plan

    def counted():
        plans.append(sim.now)
        return current_plan()

    monkeypatch.setattr(scheduler, "_current_plan", counted)
    events = []
    fire = sim._fire_scheduling_events

    def observed():
        if (any(c.is_available(sim.now) for c in sim.containers)
                and any(j.pending_count > 0 for j in sim.active_jobs)):
            events.append(sim.now)
        fire()

    monkeypatch.setattr(sim, "_fire_scheduling_events", observed)
    sim.run(max_slots=3000)
    assert len(events) > 50
    assert plans == events
