"""A finished job answers the same from its retired row.

A completed or cancelled job is retired: the simulator drops its
``SimJob`` and keeps one outcome row, and ``GET /jobs/{id}`` answers from
that row for the rest of the run and after every recovery.  The property:
for every job, the answer it gives on the slot it finishes equals, field
for field except ``slot`` and ``degradation``, what the ``SimJob`` it
dropped says (the derivation the engine used before jobs retired), and
every later answer — on later slots, and after a JSON anchor round trip
— equals that first one.  It is checked on the scenario library under
an all-injector chaos plan (retries, kills, crashes, cancellations) and
on the perf ledger's ``api-mixed`` write stream, which ``long-uptime``
builds its history from.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List

import pytest

from repro.cluster import SimJob
from repro.errors import JobStateError
from repro.service import (ServiceConfig, ServiceEngine, restore_engine,
                           take_snapshot)
from repro.workload.scenarios import SCENARIOS, build_scenario_workload
from repro.workload.trace import spec_to_dict

from .retiring import hold_retired

LEDGER = Path(__file__).resolve().parent.parent / "benchmarks" / "ledger"

CHAOS = {"seed": 11, "intensity": 3.0, "injectors": [
    {"kind": "spec_failure"},
    {"kind": "container_crash", "rate": 0.02, "revoke_slots": 2},
    {"kind": "straggler", "rate": 0.03},
    {"kind": "demand_burst", "rate": 0.02},
    {"kind": "sample_corruption", "rate": 0.2},
    {"kind": "job_kill", "rate": 0.01},
    {"kind": "solver_budget", "rate": 0.02, "depth": 1}]}

Requests = Callable[[ServiceEngine, int], None]


def _answer(status: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in status.items()
            if key not in ("slot", "degradation")}


def _answer_of(job: SimJob, tenant: str) -> Dict[str, Any]:
    """The answer the engine derived from a job's ``SimJob`` before jobs
    retired, for a job that has just completed or been cancelled."""
    spec = job.spec
    completion = job.completion_time
    answer: Dict[str, Any] = {
        "job_id": spec.job_id, "tenant": tenant,
        "state": "completed" if job.is_complete else "cancelled",
        "arrival": spec.arrival, "tasks": len(spec.task_durations),
        "pending_tasks": job.pending_count,
        "running_tasks": job.running_count,
        "completed_tasks": job.completed_count,
        "failed_attempts": job.failed_count,
        "budget": spec.budget if math.isfinite(spec.budget) else None,
        "sensitivity": spec.sensitivity, "completion": completion,
    }
    if completion is not None:
        runtime = float(completion - spec.arrival)
        answer["runtime"] = runtime
        answer["utility_value"] = spec.utility.value(runtime)
    return answer


def _round_trip(engine: ServiceEngine) -> ServiceEngine:
    """The engine its anchor rebuilds, through JSON."""
    return restore_engine(json.loads(json.dumps(take_snapshot(engine))))


def _check(config: ServiceConfig, requests: Requests, slots: int,
           cuts: range) -> Dict[str, Dict[str, Any]]:
    """Drive ``slots`` slots, checking every finished job on every slot;
    at each slot in ``cuts`` the run continues from a round-tripped
    anchor.  Returns each finished job's first answer."""
    engine = ServiceEngine(config)
    retiring = hold_retired(engine.sim)
    first: Dict[str, Dict[str, Any]] = {}
    for slot in range(slots):
        requests(engine, slot)
        engine.tick()
        for job_id, job in retiring.items():
            answer = _answer(engine.job_status(job_id))
            assert answer == _answer_of(
                job, engine.registry.tenant_of(job_id)), job_id
            first[job_id] = answer
        retiring.clear()
        for status in engine.list_jobs():
            if status["job_id"] in first:
                assert _answer(status) == first[status["job_id"]]
        if slot in cuts:
            engine = _round_trip(engine)
            retiring = hold_retired(engine.sim)
    restored = _round_trip(engine)
    for job_id, answer in first.items():
        assert _answer(restored.job_status(job_id)) == answer
    assert restored.records_digest() == engine.records_digest()
    return first


# ---------------------------------------------------------------------------
# The scenario library under chaos
# ---------------------------------------------------------------------------

def _library_requests(specs: List[Any]) -> Requests:
    """Each spec submitted on its arrival slot; every 9th slot withdraws
    the newest job still in the cluster (a cancel may race a retry)."""
    def requests(engine: ServiceEngine, slot: int) -> None:
        for spec in specs:
            if spec.arrival == slot:
                engine.submit(spec_to_dict(spec))
        if slot % 9 == 8:
            for status in reversed(engine.list_jobs()):
                if status["state"] in ("pending", "running", "queued"):
                    engine.cancel(status["job_id"])
                    break
    return requests


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_a_retired_job_answers_as_it_finished_under_chaos(name):
    scenario = SCENARIOS[name]
    specs = [replace(spec, arrival=spec.arrival // 4,
                     task_durations=tuple(max(1, d // 6)
                                          for d in spec.task_durations))
             for spec in build_scenario_workload(scenario, seed=1,
                                                 fast=True)[:24]]
    config = ServiceConfig(capacity=scenario.capacity(fast=True),
                           policy="rush", seed=2, fault_spec=CHAOS)
    first = _check(config, _library_requests(specs), 160, range(40, 160, 40))
    states = [answer["state"] for answer in first.values()]
    assert "completed" in states and "cancelled" in states
    assert any(answer["failed_attempts"] for answer in first.values())


# ---------------------------------------------------------------------------
# The perf ledger's write stream
# ---------------------------------------------------------------------------

@pytest.fixture
def ledger(monkeypatch):
    """The ledger's ``driver`` and ``schedule`` modules, imported
    read-only as its scripts import them, and dropped afterwards."""
    monkeypatch.syspath_prepend(str(LEDGER))
    yield (importlib.import_module("driver"),
           importlib.import_module("schedule"))
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == LEDGER:
            del sys.modules[name]


def test_a_retired_job_answers_as_it_finished_on_the_ledger_stream(ledger):
    driver, schedule = ledger
    slots = 90
    capacity = driver.SERVICE_WORKLOADS["long-uptime"]["capacity"]
    entries = schedule.build_schedule(
        seed=7919, seconds=slots * schedule.SLOT_SECONDS, capacity=capacity,
        read_rate=0.0, read_mix=driver.READ_MIX, prefix="h",
        **driver._API_RATES)
    buckets = schedule.by_slot(entries, slots)

    def requests(engine: ServiceEngine, slot: int) -> None:
        for entry in buckets[slot]:  # as driver.apply_in_process does
            if entry["kind"] == "submit":
                engine.submit(entry["payload"])
            elif entry["kind"] == "cancel":
                try:
                    engine.cancel(entry["job_id"])
                except JobStateError:
                    pass  # raced completion: the correct refusal

    first = _check(driver.service_config(capacity), requests, slots,
                   range(30, slots, 30))
    states = [answer["state"] for answer in first.values()]
    assert states.count("completed") > 100 and "cancelled" in states
