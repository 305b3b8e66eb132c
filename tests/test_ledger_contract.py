"""Tier-1 guard for the perf ledger's wrap contract.

``benchmarks/ledger/tracing.py`` times the program from the outside: it
looks the public entry points of every layer up by name (``getattr``)
and rebinds them.  Nothing else in ``tests/`` runs it, so renaming
``solve_onion`` in ``core/planner.py`` — or a stage no longer being
called through its module-level name — would break the traced benchmark
run silently.  This installs the real launcher around one tiny plan and
checks that every planner-stack span the ledger attributes time to is
still recorded; and around one journaled submit + tick + reopen, the
same for the service spans — a span that silently stops being recorded
(say ``apply`` claiming the tenant slot without going through
``TenantRegistry.admit``) would otherwise only show as a zero in a
traced benchmark run.  The same tracer also shows that no request
re-serialises the whole decision stream: each decision is digested once.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from repro import (GaussianEstimator, IncrementalPlanner, LinearUtility,
                   PlannerJob, RushPlanner)

TRACING = (Path(__file__).resolve().parents[1]
           / "benchmarks" / "ledger" / "tracing.py")

#: Span names ``benchmarks/ledger/attribution.py`` reads planner time from.
PLANNER_STACK_SPANS = ("planner.incremental", "planner.plan",
                       "wcde.solve_batch", "onion.solve_onion",
                       "mapping.map_time_slots")

#: ... and the ones it reads the service layers' time from.
SERVICE_SPANS = ("engine.submit", "engine.tick", "protocol.parse_submit",
                 "tenants.admit", "journal.append", "journal.fsync",
                 "journal.note_applied", "simulator.step",
                 "journal.recover_engine", "snapshot.restore_engine")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("ledger_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny_jobs():
    jobs = []
    for k in range(3):
        estimator = GaussianEstimator(prior_mean=20.0 + 5 * k, prior_std=4.0)
        estimator.observe_many([18.0 + k, 22.0, 25.0 + 2 * k])
        jobs.append(PlannerJob(f"job-{k}", LinearUtility(300.0, 1.0 + k),
                               estimator.estimate(pending_tasks=6)))
    return jobs


def test_ledger_tracing_wraps_the_live_planner_stack():
    tracing = _load_tracing()
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        jobs = _tiny_jobs()
        plan = IncrementalPlanner(RushPlanner(4), warm_start=False).plan(jobs)
    finally:
        uninstall()
    spans = {span[0]: span for span in recorder.spans}
    for name in PLANNER_STACK_SPANS:
        assert name in spans, f"the ledger no longer sees {name}"
    counters = spans["planner.plan"][5]
    assert counters == {
        "jobs": len(jobs), "presolved": 0, "cache_hits": 0,
        "cache_misses": len(jobs), "peels": plan.stats.peels,
        "checks": plan.stats.feasibility_checks}
    assert counters["peels"] > 0 and counters["checks"] > 0

    # Uninstalled means uninstalled: the next plan records nothing.
    before = len(recorder.spans)
    IncrementalPlanner(RushPlanner(4), warm_start=False).plan(_tiny_jobs())
    assert len(recorder.spans) == before


def test_ledger_tracing_wraps_the_live_service_stack(tmp_path):
    import repro.service.journal as journal_mod
    from repro.service import ServiceConfig

    tracing = _load_tracing()
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        engine, _writer = journal_mod.open_journal(
            tmp_path, ServiceConfig(capacity=2, policy="fifo"))
        engine.submit({"task_durations": [1], "budget": 9.0})
        engine.tick()
        engine.close()
        engine, _writer = journal_mod.open_journal(tmp_path)
        engine.close()
    finally:
        uninstall()
    spans = recorder.spans
    names = {span[0] for span in spans}
    for name in SERVICE_SPANS:
        assert name in names, f"the ledger no longer sees {name}"

    def parents(name):
        return {spans[span[3]][0] if span[3] >= 0 else None
                for span in spans if span[0] == name}

    # The live tick is the root the ledger splits a tick's time under;
    # recovery replays the tick through apply(), under recover_engine.
    live_appends = [span for span in spans if span[0] == "journal.append"
                    and span[5] == "tick"]
    assert [spans[span[3]][0] for span in live_appends] == ["engine.tick"]
    assert parents("simulator.step") == {"engine.tick",
                                         "journal.recover_engine"}
    assert parents("tenants.admit") == {"engine.submit",
                                        "journal.recover_engine"}


def test_each_decision_is_digested_once(tmp_path):
    """With a checkpoint after every record, the decision digest is read
    hundreds of times; none of those reads may re-serialise the stream
    through ``canonical_digest`` (a ``protocol.canonical_digest`` span
    under a tick, a submit or the journal's housekeeping), and the
    rolling digest must have folded each decision exactly once."""
    import repro.service.journal as journal_mod
    from repro.service import ServiceConfig, canonical_digest

    tracing = _load_tracing()
    recorder = tracing.Recorder()
    uninstall = tracing.install(recorder)
    try:
        engine, _writer = journal_mod.open_journal(
            tmp_path, ServiceConfig(capacity=3, policy="rush"),
            checkpoint_every=1)
        for slot in range(60):
            if slot % 3 == 0:
                engine.submit({"task_durations": [2, 3, 1], "budget": 12.0})
            engine.tick()
        engine.close()
    finally:
        uninstall()
    spans = recorder.spans
    names = [span[0] for span in spans]
    assert names.count("engine.tick") == 60
    assert names.count("journal.note_applied") >= 60

    def ancestors(span):
        while span[3] >= 0:
            span = spans[span[3]]
            yield span[0]

    hot = {"engine.tick", "engine.submit", "journal.note_applied"}
    for span in spans:
        if span[0] == "protocol.canonical_digest":
            assert not hot & set(ancestors(span)), (
                "a request re-serialised the whole decision stream")

    decisions = engine.sim.decisions
    assert len(decisions) >= 50
    assert engine._decisions_digest.items == len(decisions)
    assert engine.decisions_digest() == canonical_digest(
        [list(d) for d in decisions])
