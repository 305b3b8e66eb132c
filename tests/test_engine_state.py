"""The ``state_dict()`` / ``load_state()`` contract and the state anchor.

The property that makes a state anchor trustworthy: cut a run at any
slot, write everything down as JSON, read it back into freshly built
objects, and the continuation decides exactly as the uncut run — the
same decision stream, the same job records — for RUSH and every
baseline, with faults, retries and cancellations in flight.  It is
checked twice: on the simulator (a scenario-library workload under the
all-injector chaos plan) and on the service engine (tenants, keyed
submits, queued cancels and armed solver faults as well).

Then the anchor itself: a state anchor whose state was edited after
it was written is refused by its ``state_digest`` seal, and one forged
with a matching seal by its shape — a field of the wrong type, a
container running an attempt its job does not have, a running attempt
no container holds or two hold, an active job without a DE unit,
decision rows that do not digest to the recorded digest, a retired job
that is also live or retired twice, a completed row without its
completion slot, a cancelled one with a completion record — each with
the typed :class:`SnapshotError`, never half-loaded.  The golden
version-3 and version-4 journals still recover to the digests and
answers their release recorded, and are re-anchored at version 5, which
holds a full entry only for each live job.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator
from repro.errors import TenantQuotaError
from repro.faults import default_chaos_plan
from repro.schedulers import POLICIES
from repro.service import (ServiceConfig, ServiceEngine, SnapshotError,
                           TenantSpec, canonical_digest, open_journal,
                           recover_engine, restore_engine, take_snapshot)
from repro.service.journal import ANCHOR_NAME
from repro.service.protocol import records_digest
from repro.service.snapshot import SNAPSHOT_VERSION, state_digest
from repro.workload.scenarios import (build_scenario_workload,
                                      scenario_by_name)

from .engine_state import comparable

GOLDEN_JOURNAL = Path(__file__).parent / "golden" / "journal_parent"
GOLDEN_V4_JOURNAL = Path(__file__).parent / "golden" / "journal_v4"

# ---------------------------------------------------------------------------
# The simulator, cut and restored
# ---------------------------------------------------------------------------

CAPACITY = 4
SLOTS = 90
#: The first jobs of a library scenario, their tasks shortened and packed
#: closer so that jobs complete inside the window, and given a per-task
#: failure probability for the spec-failure injector to act on.
SPECS = [replace(spec, arrival=spec.arrival // 3, failure_prob=0.1,
                 task_durations=tuple(max(1, d // 8)
                                      for d in spec.task_durations))
         for spec in build_scenario_workload(
             scenario_by_name("web-bursty"), seed=2)[:14]]
#: slot -> job withdrawn at its start (a cancel may race a completion).
CANCELS = {9: SPECS[3].job_id, 17: SPECS[6].job_id, 30: SPECS[10].job_id}


def _simulator(policy: str) -> ClusterSimulator:
    return ClusterSimulator(CAPACITY, POLICIES[policy][0](), seed=5,
                            faults=default_chaos_plan(seed=5, intensity=4.0),
                            record_decisions=True)


def _run(policy: str, cut: int = -1):
    sim = _simulator(policy)
    for spec in SPECS:
        sim.submit(spec)
    in_flight = None
    for slot in range(SLOTS):
        if slot == cut:
            state = json.loads(json.dumps(sim.state_dict()))
            in_flight = state
            sim = _simulator(policy)
            sim.load_state(state)
        if slot in CANCELS:
            sim.cancel_job(CANCELS[slot], missing_ok=True)
        sim.step()
    return (canonical_digest([list(d) for d in sim.decisions]),
            records_digest(sim._result().records), in_flight)


_UNCUT = {}


def _uncut(policy: str):
    if policy not in _UNCUT:
        _UNCUT[policy] = _run(policy)[:2]
    return _UNCUT[policy]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(cut=st.integers(1, SLOTS - 1))
def test_a_cut_and_restored_simulator_continues_identically(policy, cut):
    decisions, records, state = _run(policy, cut)
    assert (decisions, records) == _uncut(policy)
    assert state["slot"] == cut


def test_the_cuts_carry_faults_retries_and_cancellations():
    """What the property above cuts through: attempts running, retries
    queued, jobs cancelled, a fault log, and RUSH's DE units and last
    plan — so each part of the state is exercised, not just written."""
    _, _, state = _run("rush", cut=40)
    jobs = [job for _, job in state["jobs"]]
    assert any(job["retries"] for job in jobs)
    assert state["cancelled"] and state["completed"] and state["active"]
    assert any(held is not None for held, _ in state["containers"])
    kinds = {event["kind"] for event in state["faults"]["log"]}
    assert {"container_crash", "straggler", "spec_failure"} <= kinds
    scheduler = state["scheduler"]
    assert scheduler["estimators"] and scheduler["plan"] is not None


def test_a_job_state_grows_with_launched_attempts_not_with_tasks():
    def simulator():
        return ClusterSimulator(CAPACITY, POLICIES["fifo"][0]())

    sim = simulator()
    sim.submit(replace(SPECS[0], job_id="big", arrival=0, failure_prob=0.0,
                       task_durations=(3,) * 5000))
    sim.step()
    job = sim.job("big").state_dict()
    assert len(job["launched"]) == CAPACITY and job["retries"] == []
    restored = simulator()
    restored.load_state(json.loads(json.dumps(sim.state_dict())))
    assert len(restored.job("big").tasks) == 5000
    assert restored.job("big").pending_count == 5000 - CAPACITY


# ---------------------------------------------------------------------------
# The service engine, cut and restored
# ---------------------------------------------------------------------------

CHAOS = {"seed": 3, "intensity": 3.0, "injectors": [
    {"kind": "spec_failure"},
    {"kind": "container_crash", "rate": 0.03, "revoke_slots": 2},
    {"kind": "straggler", "rate": 0.05},
    {"kind": "demand_burst", "rate": 0.03},
    {"kind": "sample_corruption", "rate": 0.2},
    {"kind": "job_kill", "rate": 0.02}]}
TENANTS = (TenantSpec("batch", share=0.5),
           TenantSpec("web", share=0.5, max_active=4))
ENGINE_SLOTS = 40


def _config(policy: str) -> ServiceConfig:
    return ServiceConfig(capacity=3, policy=policy, seed=1,
                         tenants=TENANTS, fault_spec=CHAOS)


def _requests(engine: ServiceEngine, slot: int) -> None:
    """The same request stream for every engine, one slot's worth."""
    job = {"task_durations": [2 + slot % 3, 3, 2], "budget": 18.0 + slot,
           "failure_prob": 0.2}
    if slot % 2 == 0:
        engine.submit(dict(job, tenant="batch",
                           idempotency_key=f"k-{slot // 4}"))
    if slot % 3 == 0:
        try:
            engine.submit(dict(job, tenant="web"))
        except TenantQuotaError:
            pass
    if slot % 5 == 4:
        for status in engine.list_jobs():
            if status["state"] in ("pending", "running", "queued"):
                engine.cancel(status["job_id"])
                break
    if slot % 7 == 3 and engine.scheduler.has_solver:
        engine.inject_solver_fault(1 + slot % 2)


def _drive(policy: str, cut: int = -1):
    engine = ServiceEngine(_config(policy))
    for slot in range(ENGINE_SLOTS):
        _requests(engine, slot)
        if slot == cut:  # mid-slot: queued events and cancels pending
            state = json.loads(json.dumps(engine.state_dict()))
            engine = ServiceEngine.from_state(_config(policy), state)
        engine.tick()
    return (engine.decisions_digest(), engine.records_digest(),
            [(s["job_id"], s["state"]) for s in engine.list_jobs()],
            engine.registry.status())


_UNCUT_ENGINES = {}


@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, ENGINE_SLOTS - 1))
@example(cut=10)  # a depth-1 fault armed: the restored last good plan serves
def test_a_cut_and_restored_engine_continues_identically(policy, cut):
    if policy not in _UNCUT_ENGINES:
        _UNCUT_ENGINES[policy] = _drive(policy)
    assert _drive(policy, cut) == _UNCUT_ENGINES[policy]


# ---------------------------------------------------------------------------
# The state anchor: refused when tampered, never half-loaded
# ---------------------------------------------------------------------------

def _busy_snapshot():
    """18 slots in: busy and idle containers, active jobs with DE units,
    and retired rows of both kinds."""
    engine = ServiceEngine(_config("rush"))
    for slot in range(18):
        _requests(engine, slot)
        engine.tick()
    snapshot = json.loads(json.dumps(take_snapshot(engine)))
    assert snapshot["version"] == SNAPSHOT_VERSION == 5
    sim = snapshot["state"]["sim"]
    assert sim["completed"] and sim["cancelled"] and sim["active"]
    return engine, snapshot


def _busy_container(snapshot):
    return next(row for row in snapshot["state"]["sim"]["containers"]
                if row[0] is not None)


def _wrong_type(snapshot):
    snapshot["state"]["sim"]["counters"][1] = "12"  # busy container-slots


def _wrong_type_deep(snapshot):
    estimators = snapshot["state"]["sim"]["scheduler"]["estimators"]
    estimators[0][1]["samples"] = ["6.0"]


def _missing_attempt(snapshot):
    _busy_container(snapshot)[0][1] = 999


def _missing_job(snapshot):
    _busy_container(snapshot)[0][0] = "no-such-job"


def _idle_attempt(snapshot):
    """The container names an attempt that exists but is not running."""
    _busy_container(snapshot)[0][1] = 0
    for _, job in snapshot["state"]["sim"]["jobs"]:
        for row in job["launched"]:
            row[0] = 2  # completed


def _unheld_attempt(snapshot):
    """A running attempt that no container holds."""
    _busy_container(snapshot)[0] = None


def _attempt_held_twice(snapshot):
    busy = _busy_container(snapshot)
    idle = next(row for row in snapshot["state"]["sim"]["containers"]
                if row[0] is None)
    idle[0] = list(busy[0])


def _job_without_a_unit(snapshot):
    """An active job the RUSH scheduler keeps no DE unit for."""
    snapshot["state"]["sim"]["scheduler"]["estimators"].pop()


def _rows_off_digest(snapshot):
    rows = snapshot["state"]["sim"]["decisions"]
    rows[0], rows[-1] = rows[-1], rows[0]


def _retired_and_live(snapshot):
    """A retired row under the id of a job that is still live."""
    sim = snapshot["state"]["sim"]
    sim["completed"][0][0] = sim["active"][0]


def _retired_twice(snapshot):
    sim = snapshot["state"]["sim"]
    sim["cancelled"].append(list(sim["completed"][0]))


def _completed_without_slot(snapshot):
    snapshot["state"]["sim"]["completed"][0][7] = None  # completion


def _cancelled_with_record(snapshot):
    row = snapshot["state"]["sim"]["cancelled"][0]
    row[7], row[8] = row[4] + 5, 0.5  # completion, utility_value


#: Forged states, each resealed with its own ``state_digest`` so that the
#: check under test is the one that must refuse it.
TAMPERINGS = {
    "wrong-type": (_wrong_type, "expected an integer"),
    "wrong-type-deep": (_wrong_type_deep, "expected a number"),
    "missing-attempt": (_missing_attempt, "not running"),
    "missing-job": (_missing_job, "not running"),
    "idle-attempt": (_idle_attempt, "not running"),
    "unheld-attempt": (_unheld_attempt, "running in no container"),
    "held-twice": (_attempt_held_twice, "both run attempt"),
    "job-without-unit": (_job_without_a_unit,
                         "DE units do not match the active jobs"),
    "digest": (_rows_off_digest, "decision digest"),
    "retired-and-live": (_retired_and_live, "is also live"),
    "retired-twice": (_retired_twice, "retired twice"),
    "completed-without-slot": (_completed_without_slot,
                               "completed job .* has no completion slot"),
    "cancelled-with-record": (_cancelled_with_record,
                              "cancelled job .* has a completion record"),
}


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_a_tampered_state_anchor_is_refused(name, tmp_path):
    tamper, message = TAMPERINGS[name]
    engine, snapshot = _busy_snapshot()
    assert restore_engine(json.loads(json.dumps(snapshot))).slot == engine.slot
    tamper(snapshot)
    with pytest.raises(SnapshotError, match="state digest"):
        restore_engine(snapshot)  # the seal catches every edit first
    snapshot["state_digest"] = state_digest(snapshot["state"])
    with pytest.raises(SnapshotError, match=message):
        restore_engine(snapshot)

    # The same anchor in a journal directory: recovery refuses it with
    # the same typed error and leaves every file as it was.
    live, writer = open_journal(tmp_path, engine.config)
    live.close()
    (tmp_path / ANCHOR_NAME).write_text(
        json.dumps(dict(snapshot, journal_seq=writer.seq)))
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    with pytest.raises(SnapshotError, match=message):
        recover_engine(tmp_path)
    with pytest.raises(SnapshotError, match=message):
        open_journal(tmp_path)
    assert {path.name: path.read_bytes()
            for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("seal", ["missing", None, 7])
def test_a_state_anchor_without_its_seal_is_refused(seal):
    _, snapshot = _busy_snapshot()
    if seal == "missing":
        snapshot.pop("state_digest")
    else:
        snapshot["state_digest"] = seal
    with pytest.raises(SnapshotError, match="no state_digest"):
        restore_engine(snapshot)


def test_a_state_anchor_at_another_slot_is_refused():
    _, snapshot = _busy_snapshot()
    snapshot["slot"] += 1
    with pytest.raises(SnapshotError, match="slot"):
        restore_engine(snapshot)


def test_an_anchor_armed_with_an_impossible_fault_depth_is_refused():
    _, snapshot = _busy_snapshot()
    snapshot["state"]["sim"]["scheduler"]["forced_failures"] = 3
    snapshot["state_digest"] = state_digest(snapshot["state"])
    with pytest.raises(SnapshotError, match="solver-fault depth"):
        restore_engine(snapshot)


def test_restore_round_trips_the_whole_state():
    engine, snapshot = _busy_snapshot()
    restored = restore_engine(snapshot)
    assert comparable(json.loads(json.dumps(take_snapshot(restored)))) \
        == comparable(snapshot)


# ---------------------------------------------------------------------------
# Older journals: still recover, re-anchored at version 5
# ---------------------------------------------------------------------------

def test_the_golden_v3_journal_is_re_anchored_at_the_current_version(
        tmp_path):
    expected = json.loads((GOLDEN_JOURNAL / "expected.json").read_text())
    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN_JOURNAL, directory)
    (directory / "expected.json").unlink()
    (directory / "README.md").unlink()
    assert json.loads((directory / ANCHOR_NAME).read_text())["version"] == 3

    engine, writer = open_journal(directory)
    anchor = json.loads((directory / ANCHOR_NAME).read_text())
    assert anchor["version"] == SNAPSHOT_VERSION
    assert anchor["journal_seq"] == writer.seq == expected["last_seq"]
    engine.close()

    reopened, stats = recover_engine(directory)
    assert stats["anchor_version"] == SNAPSHOT_VERSION
    assert stats["applied"] == 0
    assert reopened.decisions_digest() == expected["decisions_digest"]
    assert reopened.records_digest() == expected["records_digest"]
    reopened.tick(expected["continued"]["slot"] - reopened.slot)
    assert reopened.decisions_digest() == \
        expected["continued"]["decisions_digest"]
    assert reopened.records_digest() == expected["continued"]["records_digest"]


def _answers(engine):
    """Every job's ``GET /jobs/{id}`` answer without its slot and the
    ladder's health, as ``expected.json`` records them."""
    return {status["job_id"]: {key: value for key, value in status.items()
                               if key not in ("job_id", "slot",
                                              "degradation")}
            for status in engine.list_jobs()}


def test_the_golden_v4_journal_recovers_and_is_re_anchored(tmp_path):
    expected = json.loads((GOLDEN_V4_JOURNAL / "expected.json").read_text())
    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN_V4_JOURNAL, directory)
    (directory / "expected.json").unlink()
    (directory / "README.md").unlink()
    v4 = json.loads((directory / ANCHOR_NAME).read_text())
    assert v4["version"] == 4
    assert v4["state"]["sim"]["completed"] and v4["state"]["sim"]["cancelled"]

    engine, stats = recover_engine(directory)
    assert (stats["anchor_version"], stats["anchor_seq"], stats["last_seq"]) \
        == (4, expected["anchor_seq"], expected["last_seq"])
    assert engine.slot == expected["slot"]
    assert engine.decisions_digest() == expected["decisions_digest"]
    assert engine.records_digest() == expected["records_digest"]
    assert _answers(engine) == expected["jobs"]

    engine, writer = open_journal(directory)
    anchor = json.loads((directory / ANCHOR_NAME).read_text())
    assert anchor["version"] == SNAPSHOT_VERSION
    assert anchor["journal_seq"] == writer.seq == expected["last_seq"]
    sim = anchor["state"]["sim"]
    assert sorted(spec["job_id"] for spec, _ in sim["jobs"]) \
        == sorted(sim["pending_arrivals"] + sim["active"])
    assert len(sim["completed"]) + len(sim["cancelled"]) == sum(
        status["state"] in ("completed", "cancelled")
        for status in expected["jobs"].values())
    engine.close()

    reopened, stats = recover_engine(directory)
    assert (stats["anchor_version"], stats["applied"]) == (SNAPSHOT_VERSION, 0)
    assert reopened.decisions_digest() == expected["decisions_digest"]
    assert _answers(reopened) == expected["jobs"]
    continued = expected["continued"]
    reopened.tick(continued["slot"] - reopened.slot)
    assert reopened.decisions_digest() == continued["decisions_digest"]
    assert reopened.records_digest() == continued["records_digest"]
    assert _answers(reopened) == continued["jobs"]


# ---------------------------------------------------------------------------
# The seal and the anchor text, written in pieces
# ---------------------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12)


@settings(max_examples=60, deadline=None)
@given(value=json_values, repeat=st.integers(0, 600))
def test_json_pieces_join_to_one_dump(value, repeat):
    """Lists long enough to be cut into pieces, nested in dicts and
    lists, non-ASCII keys and non-finite floats included."""
    from repro.state import json_pieces

    for item in (value, [value] * repeat, {"rows": [value] * repeat,
                                          "é": {"x": [value] * repeat}}):
        assert "".join(json_pieces(item)) == json.dumps(item, sort_keys=True)


def test_the_seal_is_the_digest_of_one_dump():
    import hashlib

    _, snapshot = _busy_snapshot()
    state = snapshot["state"]
    assert state_digest(state) == snapshot["state_digest"] == hashlib.sha256(
        json.dumps(state, sort_keys=True).encode("utf-8")).hexdigest()
