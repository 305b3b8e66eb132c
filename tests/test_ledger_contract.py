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
traced benchmark run.
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
