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
  *before* this refactor recovers to the digest recorded beside it.
"""

from __future__ import annotations

import ast
import json
import shutil
from pathlib import Path

import repro.service.engine as engine_module
from repro import obs
from repro.obs.metrics import CATALOG
from repro.service import (ServiceConfig, ServiceEngine, TenantSpec,
                           open_journal, recover_engine, restore_engine,
                           take_snapshot)

GOLDEN_JOURNAL = Path(__file__).parent / "golden" / "journal_parent"

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
    engine.inject_solver_fault(3)
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
        engine.inject_solver_fault(3)
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
