"""Management-interface rendering — the paper's Figure 2.

The RUSH-YARN prototype ships an "enhanced HTTP management interface that
is able to provide a projected completion-time for all the jobs" and
highlights, in red, jobs that cannot finish before their utility drops to
zero, prompting the user to resubmit with a new configuration.

This module reproduces that interface as pure rendering: given a
:class:`~repro.core.planner.SchedulePlan` (and optionally live cluster
state), it produces the same status table as plain text — with a ``!!``
marker standing in for the red rows — or as a minimal self-contained HTML
page with the rows literally colored red.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, List, Mapping, Optional

from repro.analysis.report import format_table

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.metrics import SimulationResult
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.planner import SchedulePlan

__all__ = ["status_rows", "render_status_text", "render_status_html",
           "render_cluster_text", "render_profile_text",
           "render_fault_text"]

_COLUMNS = ["job", "robust demand", "target T", "projected T",
            "predicted utility", "status"]


def status_rows(plan: "SchedulePlan") -> List[List[object]]:
    """The status table's rows, one per job, in plan order."""
    rows: List[List[object]] = []
    for job_id in plan._order:
        decision = plan.jobs[job_id]
        status = "ok" if decision.achievable else "IMPOSSIBLE"
        rows.append([
            job_id,
            decision.robust_demand,
            decision.target_completion,
            decision.planned_completion,
            decision.predicted_utility,
            status,
        ])
    return rows


def render_status_text(plan: "SchedulePlan") -> str:
    """The Figure 2 table as plain text; ``!!`` marks the red rows."""
    rows = []
    for row in status_rows(plan):
        marker = "!!" if row[-1] == "IMPOSSIBLE" else "  "
        rows.append([marker] + row)
    table = format_table(["", *_COLUMNS], rows, digits=1)
    header = (f"RUSH scheduler status — theta={plan.theta}, "
              f"horizon={plan.horizon} slots, "
              f"{plan.layers} onion layers, solved in "
              f"{plan.solve_seconds * 1e3:.1f} ms")
    impossible = plan.impossible_jobs()
    footer = ("" if not impossible else
              "\n!! jobs cannot reach positive utility; resubmit with a "
              "new job configuration: " + ", ".join(impossible))
    return f"{header}\n\n{table}{footer}"


def render_status_html(plan: "SchedulePlan") -> str:
    """The Figure 2 table as a self-contained HTML page.

    Impossible jobs are rendered as literal red rows, exactly like the
    screenshot in the paper.
    """
    body_rows = []
    for row in status_rows(plan):
        impossible = row[-1] == "IMPOSSIBLE"
        style = ' style="background:#c0392b;color:#fff"' if impossible else ""
        cells = "".join(
            f"<td>{html.escape(_fmt(cell))}</td>" for cell in row)
        body_rows.append(f"<tr{style}>{cells}</tr>")
    head_cells = "".join(f"<th>{html.escape(c)}</th>" for c in _COLUMNS)
    return (
        "<!DOCTYPE html><html><head>"
        "<title>RUSH scheduler</title>"
        "<style>table{border-collapse:collapse}"
        "td,th{border:1px solid #999;padding:4px 8px;"
        "font-family:monospace}</style></head><body>"
        "<h1>RUSH scheduler</h1>"
        f"<p>theta={plan.theta}, horizon={plan.horizon} slots, "
        f"{plan.layers} onion layers</p>"
        f"<table><thead><tr>{head_cells}</tr></thead>"
        f"<tbody>{''.join(body_rows)}</tbody></table>"
        "</body></html>")


def render_cluster_text(sim: "ClusterSimulator",
                        plan: Optional["SchedulePlan"] = None) -> str:
    """A live cluster snapshot: containers, active jobs, optional plan."""
    busy = sim.capacity - sim.free_container_count
    lines = [
        f"slot {sim.now}: {busy}/{sim.capacity} containers busy, "
        f"{len(sim.active_jobs)} active job(s), "
        f"{sim.task_failures} task failure(s) so far",
    ]
    rows = []
    for job in sorted(sim.active_jobs, key=lambda j: j.arrival):
        rows.append([
            job.job_id, job.spec.sensitivity, job.arrival,
            job.running_count, job.pending_count, job.completed_count,
            job.failed_count,
        ])
    if rows:
        lines.append(format_table(
            ["job", "class", "arrived", "running", "pending", "done",
             "failed"], rows))
    if plan is not None:
        lines.append("")
        lines.append(render_status_text(plan))
    return "\n".join(lines)


def render_profile_text(profile: Mapping[str, float]) -> str:
    """Planner-cost view over :meth:`RushScheduler.profile` counters.

    Shows where planning time went (WCDE / onion / mapping), how much
    work the incremental engine skipped (estimate reuse, presolve hits,
    WCDE-memo hit rate) and the onion effort (peels, feasibility checks
    evaluated, probes a certificate answered instead).
    """
    plans = int(profile.get("plans_computed", 0))
    if plans == 0:
        return "planner profile: no plans computed yet"
    total = profile.get("planner_seconds", 0.0)
    lines = [
        f"planner profile: {plans} plan(s) in {total:.3f} s "
        f"({total / plans * 1e3:.1f} ms/plan)",
    ]
    stage_rows = [
        [stage, profile.get(key, 0.0),
         100.0 * profile.get(key, 0.0) / total if total else 0.0]
        for stage, key in (("WCDE", "wcde_seconds"),
                           ("onion peeling", "onion_seconds"),
                           ("slot mapping", "mapping_seconds"))]
    lines.append(format_table(["stage", "seconds", "% of total"],
                              stage_rows, digits=3))
    refreshed = int(profile.get("estimates_refreshed", 0))
    reused = int(profile.get("estimates_reused", 0))
    presolve_hits = int(profile.get("presolve_hits", 0))
    presolve_misses = int(profile.get("presolve_misses", 0))
    lines.append(
        f"estimates: {refreshed} refreshed, {reused} reused "
        f"(dirty tracking); presolve: {presolve_hits} hit(s), "
        f"{presolve_misses} miss(es)")
    lines.append(
        f"WCDE memo: {int(profile.get('wcde_cache_hits', 0))} hit(s), "
        f"{int(profile.get('wcde_cache_misses', 0))} miss(es) "
        f"(hit rate {profile.get('wcde_cache_hit_rate', 0.0):.1%})")
    lines.append(
        f"onion: {int(profile.get('peels', 0))} peel(s), "
        f"{int(profile.get('feasibility_checks', 0))} feasibility check(s) "
        f"evaluated, {int(profile.get('certified_probes', 0))} certified")
    return "\n".join(lines)


def render_fault_text(result: "SimulationResult") -> str:
    """Injected-fault and degradation accounting for one finished run.

    Summarizes the run's :class:`~repro.faults.base.FaultLog` stream by
    kind and the scheduler's degradation-ladder fallbacks — the chaos
    run's observability story in two small tables.
    """
    if not result.fault_events and not result.fallbacks:
        return "faults: none injected, no degradation fallbacks"
    lines = []
    counts: dict = {}
    for event in result.fault_events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    if counts:
        rows = [[kind, counts[kind]] for kind in sorted(counts)]
        lines.append(f"injected faults ({len(result.fault_events)} events):")
        lines.append(format_table(["kind", "events"], rows))
    else:
        lines.append("injected faults: none")
    if result.fallbacks:
        rows = [[rung, result.fallbacks[rung]]
                for rung in sorted(result.fallbacks)]
        lines.append(f"degradation fallbacks ({result.fallback_count}):")
        lines.append(format_table(["rung", "count"], rows))
    else:
        lines.append("degradation fallbacks: none")
    if result.timed_out:
        lines.append(f"run censored at {result.slots_simulated} slots "
                     "(incomplete jobs scored at their capped runtime)")
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.1f}"
    return str(cell)
