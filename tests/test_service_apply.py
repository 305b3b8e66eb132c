"""One apply path: the structure, pinned — not only the behaviour.

``ServiceEngine`` accepts every event as validate → commit → apply, and
``apply(entry)`` is the one state transition the live handlers,
``restore_engine`` and ``recover_engine`` share.  The crash battery
(``tests/test_journal.py``) and the lifecycle state machine check what
that buys; this file checks the seam itself:

* an AST walk over ``service/engine.py`` — the tenant claim, the event
  queue, the idempotency map and ``sim.step`` are touched only inside
  ``apply``;
* full-state equality — a live engine, its recovery from the WAL and
  its restore from a snapshot agree field for field, and so does every
  journal-derived ``rush_*`` series on the metrics registry;
* the ``solver_fault`` event kind — an injected fault is a journaled
  event like any other, so a chaos-driven daemon recovers;
* format compatibility — a journal directory written by the commit
  *before* this refactor recovers to the digest recorded beside it, and
  one written while the degradation ladder had four rungs is refused:
  its solver-fault depths name other rungs today.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import pytest

import repro.service.engine as engine_module
from repro import obs
from repro.errors import ReproError
from repro.obs.metrics import CATALOG
from repro.service import (JournalCorruptError, ServiceConfig, ServiceEngine,
                           SnapshotError, TenantSpec, open_journal,
                           recover_engine, restore_engine, take_snapshot)
from repro.service.journal import ANCHOR_NAME
from repro.service.snapshot import SNAPSHOT_VERSION

GOLDEN_JOURNAL = Path(__file__).parent / "golden" / "journal_parent"
GOLDEN_CHAOS_JOURNAL = Path(__file__).parent / "golden" / "journal_parent_chaos"

RUSH = ServiceConfig(
    capacity=2, policy="rush", seed=1,
    scheduler_options={"theta": 0.9, "delta": 0.7},
    tenants=(TenantSpec("batch", share=0.5),
             TenantSpec("web", share=0.5, max_active=3)))


# ---------------------------------------------------------------------------
# (c) the structure: who may touch engine state
# ---------------------------------------------------------------------------

def _dotted(node: ast.AST) -> str:
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def test_state_is_touched_only_inside_apply():
    tree = ast.parse(Path(engine_module.__file__).read_text("utf-8"))
    engine = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "ServiceEngine")
    guarded_calls = {"self.registry.admit", "self.events.push",
                     "self.sim.step"}
    seen = set()
    for method in engine.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        for node in ast.walk(method):
            touched = None
            if isinstance(node, ast.Call) \
                    and _dotted(node.func) in guarded_calls:
                touched = _dotted(node.func)
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (node.targets if not isinstance(node, ast.AugAssign)
                           else [node.target])
                if any(isinstance(t, ast.Subscript)
                       and _dotted(t.value) == "self._idempotency"
                       for t in targets):
                    touched = "self._idempotency[...] ="
            if touched is not None:
                seen.add(touched)
                assert method.name == "apply", (
                    f"{touched} in ServiceEngine.{method.name}: engine "
                    "state changes only inside apply()")
    # The walk is looking at the right file: apply does all four.
    assert seen == guarded_calls | {"self._idempotency[...] ="}


# ---------------------------------------------------------------------------
# (b) full-state equality: live ≡ WAL recovery ≡ snapshot restore
# ---------------------------------------------------------------------------

def _scripted_run(engine: ServiceEngine) -> None:
    """Submit (keyed, auto-id, named, future arrival), cancel, inject, tick."""
    job = {"task_durations": [3, 2, 2], "budget": 20.0}
    engine.submit(dict(job, tenant="batch", idempotency_key="k-1"))
    engine.submit(dict(job, tenant="web", job_id="named"))
    engine.tick(2)
    engine.submit(dict(job, tenant="web", arrival=engine.slot + 3))
    engine.inject_solver_fault(2)
    engine.tick()
    engine.cancel("named")
    engine.submit(dict(job, tenant="batch", idempotency_key="k-1"))  # dedup
    engine.inject_solver_fault(1)
    engine.tick(3)
    engine.submit(dict(job, tenant="batch"))
    engine.cancel("web-2")


def _full_state(engine: ServiceEngine):
    return (take_snapshot(engine), engine.registry.status(),
            engine.list_jobs(), engine.cluster_status())


def _metrics_on():
    return obs.enable(trace=False, metrics=True, ledger=False).metrics


def _journal_derived(metrics):
    """What ``/metrics`` must show again after a restart: the series whose
    catalog row says they are a function of the journal (the rest, e.g.
    ``rush_journal_*``, count this process's own I/O)."""
    return {name: entry["values"]
            for name, entry in metrics.snapshot().items()
            if CATALOG[name].journal_derived}


def test_live_recovered_and_restored_engines_are_equal(tmp_path):
    live_metrics = _metrics_on()
    live, _writer = open_journal(tmp_path, RUSH, checkpoint_every=3)
    _scripted_run(live)
    expected = _full_state(live)
    series = _journal_derived(live_metrics)
    assert series["rush_service_jobs_submitted_total"] == [
        [["batch"], 2.0], [["web"], 2.0]]  # the deduplicated retry is not one
    assert series["rush_service_jobs_cancelled_total"] == [[["web"], 2.0]]
    assert "rush_journal_appends_total" in live_metrics.snapshot()
    assert "rush_journal_appends_total" not in series
    kinds = [entry["kind"] for entry in live.journal]
    assert kinds.count("solver_fault") == 2 and "cancel" in kinds
    assert expected[0]["auto_seq"] == 3
    live.close()

    recovered_metrics = _metrics_on()
    recovered, stats = recover_engine(tmp_path)
    assert stats["checkpoints"] >= 2
    assert _full_state(recovered) == expected
    assert _journal_derived(recovered_metrics) == series

    restored_metrics = _metrics_on()
    restored = restore_engine(json.loads(json.dumps(expected[0])))
    assert _full_state(restored) == expected
    assert _journal_derived(restored_metrics) == series
    obs.reset()

    # ... and they stay equal: the armed-but-unfired fault, the queued
    # cancel and the idempotency ledger all survived both rebuilds.
    for engine in (live, recovered, restored):
        again = engine.submit({"task_durations": [1], "tenant": "batch",
                               "idempotency_key": "k-1"})
        assert again["deduplicated"] is True
        engine.tick(25)
    assert _full_state(recovered) == _full_state(live) == _full_state(restored)


# ---------------------------------------------------------------------------
# Satellite: an injected solver fault is a journaled event
# ---------------------------------------------------------------------------

def test_chaos_driven_daemon_recovers_to_the_live_digest(tmp_path):
    """``inject_solver_fault`` used to arm the scheduler without a
    journal record, so every replay of a chaos-driven run diverged at
    the first checkpoint and the directory could never be reopened."""
    config = ServiceConfig(capacity=2, policy="rush")
    engine, _writer = open_journal(tmp_path, config, checkpoint_every=4)
    for k in range(6):
        engine.submit({"task_durations": [2, 3], "budget": 30.0,
                       "job_id": f"j{k}"})
    for _ in range(8):
        engine.inject_solver_fault(2)
        engine.tick()
    fallbacks = engine.scheduler.degradation_counts
    assert fallbacks.get("greedy_edf", 0) >= 3
    digest = engine.decisions_digest()
    snapshot = take_snapshot(engine)
    engine.close()

    reopened, _writer = open_journal(tmp_path, config)
    assert reopened.decisions_digest() == digest
    assert reopened.scheduler.degradation_counts == fallbacks
    assert reopened.job_status("j0")["degradation"]["fallbacks"] == fallbacks
    reopened.close()

    restored = restore_engine(snapshot)
    assert restored.scheduler.degradation_counts == fallbacks
    assert take_snapshot(restored) == snapshot


#: A replayed ``solver_fault`` entry's depth, four ways wrong: absent, not
#: a number, outside the ladder, a bool (the live path refuses it too).
MALFORMED_DEPTHS = [{}, {"depth": "x"}, {"depth": 3}, {"depth": True}]


@pytest.mark.parametrize("depth", MALFORMED_DEPTHS,
                         ids=["missing", "string", "outside", "bool"])
def test_a_malformed_fault_depth_on_replay_is_a_typed_error(tmp_path, depth):
    """A journal anchor or a WAL record is outside input: a bad depth
    must surface as the service's own error (``rush serve --journal-dir``
    answers ``error: …`` and exits 2), never a raw ``KeyError`` /
    ``ValueError`` and never a silent replay."""
    config = ServiceConfig(capacity=2, policy="rush")
    engine = ServiceEngine(config)
    engine.submit({"task_durations": [2, 3], "job_id": "j"})
    engine.inject_solver_fault(1)
    engine.tick(2)
    snapshot = take_snapshot(engine)
    (fault,) = [e for e in snapshot["journal"] if e["kind"] == "solver_fault"]
    fault.pop("depth")
    fault.update(depth)
    with pytest.raises(SnapshotError, match="solver-fault depth") as err:
        restore_engine(snapshot)
    assert isinstance(err.value, ReproError)

    live, writer = open_journal(tmp_path, config)
    live.submit({"task_durations": [2, 3], "job_id": "j"})
    writer.append(dict({"kind": "solver_fault", "due": live.slot}, **depth))
    live.close()
    with pytest.raises(JournalCorruptError, match="solver-fault depth"):
        recover_engine(tmp_path)


def test_a_v1_snapshot_loads_unless_it_could_carry_a_fault_depth():
    """Versions 1 and 2 share a format; only a v1 file that could hold a
    depth counted on the four-rung ladder is refused."""
    engine = ServiceEngine(RUSH)
    _scripted_run(engine)
    faulted = dict(take_snapshot(engine), version=1)
    with pytest.raises(SnapshotError, match="version-1"):
        restore_engine(faulted)

    clean = ServiceEngine(RUSH)
    clean.submit({"task_durations": [3, 2], "tenant": "batch"})
    clean.tick(4)
    v1 = dict(take_snapshot(clean), version=1)
    assert restore_engine(v1).decisions_digest() == clean.decisions_digest()

    chaos = ServiceConfig(capacity=2, policy="rush", fault_spec={
        "seed": 0, "injectors": [{"kind": "solver_budget", "rate": 0.1}]})
    budgeted = dict(take_snapshot(ServiceEngine(chaos)), version=1)
    with pytest.raises(SnapshotError, match="version-1"):
        restore_engine(budgeted)
    assert restore_engine(dict(budgeted, version=SNAPSHOT_VERSION)).slot == 0


# ---------------------------------------------------------------------------
# (d) format compatibility: a journal the parent commit wrote
# ---------------------------------------------------------------------------

def test_journal_written_before_the_refactor_recovers_to_its_digest(tmp_path):
    """``tests/golden/journal_parent`` is an anchor plus one rotated
    segment written by the commit before ``apply`` existed (see its
    README); the record kinds and the v1 anchor are unchanged on disk,
    so today's recovery must land on the digests recorded then — and
    keep deciding exactly as that engine went on to."""
    expected = json.loads((GOLDEN_JOURNAL / "expected.json").read_text())
    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN_JOURNAL, directory)
    (directory / "expected.json").unlink()
    (directory / "README.md").unlink()

    engine, stats = recover_engine(directory)
    assert stats["last_seq"] == expected["last_seq"]
    assert stats["checkpoints"] >= 1 and stats["truncated_bytes"] == 0
    assert engine.slot == expected["slot"]
    assert engine.decisions_digest() == expected["decisions_digest"]
    assert engine.records_digest() == expected["records_digest"]
    assert {job["job_id"]: job["state"]
            for job in engine.list_jobs()} == expected["jobs"]

    engine.tick(expected["continued"]["slot"] - engine.slot)
    assert engine.decisions_digest() == \
        expected["continued"]["decisions_digest"]
    assert engine.records_digest() == expected["continued"]["records_digest"]


def test_journal_written_before_the_refactor_is_re_anchored_at_v2(tmp_path):
    """``open_journal`` re-anchors a recovered v1 directory before it
    appends, so no record this release writes sits behind a v1 anchor."""
    expected = json.loads((GOLDEN_JOURNAL / "expected.json").read_text())
    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN_JOURNAL, directory)
    engine, writer = open_journal(directory)
    anchor = json.loads((directory / ANCHOR_NAME).read_text())
    assert anchor["version"] == SNAPSHOT_VERSION
    assert anchor["journal_seq"] == expected["last_seq"] == writer.seq
    assert not (directory / "wal-00000016.log").exists()
    engine.tick()
    digest = engine.decisions_digest()
    engine.close()

    reopened, stats = recover_engine(directory)
    assert stats["anchor_version"] == SNAPSHOT_VERSION
    assert reopened.decisions_digest() == digest


def test_chaos_journal_written_on_the_four_rung_ladder_is_refused(tmp_path):
    """``tests/golden/journal_parent_chaos`` holds depth-1, -2 and -3
    faults journaled behind a v1 anchor (see its README).  Replaying
    them would serve other rungs, so recovery refuses the directory at
    the first fault record — and ``open_journal`` leaves it untouched."""
    expected = json.loads(
        (GOLDEN_CHAOS_JOURNAL / "expected.json").read_text())
    first = expected["first_solver_fault"]
    directory = tmp_path / "wal"
    shutil.copytree(GOLDEN_CHAOS_JOURNAL, directory)
    before = {path.name: path.read_bytes() for path in directory.iterdir()}

    with pytest.raises(JournalCorruptError, match="version-1") as err:
        recover_engine(directory)
    assert Path(err.value.path).name == first["segment"]
    assert err.value.offset == first["offset"]
    with pytest.raises(JournalCorruptError, match="version-1"):
        open_journal(directory)
    assert {path.name: path.read_bytes()
            for path in directory.iterdir()} == before
