"""From spans to the per-layer table.

A layer's *self time* is its spans' duration minus the part their child
spans cover.  Per request the ledger splits the wall time from *due* to
*done* into: ``queue`` (waiting — in the driver for a free lane, and at
the server behind other engine calls), the self time of every layer
under the request's root span, and ``http`` — the rest of the round
trip, which from outside is ``service.daemon`` + ``service.client`` as
one span.  The parts sum to the whole by construction, so a share that
looks wrong points at a missing span, not at rounding.
"""

from __future__ import annotations

import bisect
from collections import defaultdict, deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from tracing import LAYERS

#: (kind, due, sent, done, key) in ``perf_counter`` seconds.
Request = Tuple[str, float, float, float, Any]

SHARE_PARTS = ("http", "queue") + LAYERS

#: Every per-layer metric the ledger reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "http.self_ms_p50": "ms", "http.floor_ms_p50": "ms",
    "http.requests": "count",
    "http.submit_p95_ms": "ms", "http.submit_p99_ms": "ms",
    "http.read_p99_ms": "ms",
    "http.tick_p95_ms": "ms", "http.tick_p99_ms": "ms",
    "protocol.parse_submit_us_p50": "us", "protocol.digest_ms_p50": "ms",
    "protocol.digest_calls": "count",
    "engine.submit_self_us_p50": "us", "engine.cancel_self_us_p50": "us",
    "engine.job_status_us_p50": "us", "engine.list_jobs_ms_p50": "ms",
    "engine.cluster_status_us_p50": "us", "engine.tick_self_ms_p50": "ms",
    "tenants.admit_us_p50": "us",
    "journal.append_us_p50": "us", "journal.fsync_us_p50": "us",
    "journal.fsyncs": "count", "journal.bytes_per_event": "bytes",
    "journal.checkpoint_ms_p50": "ms", "journal.checkpoints": "count",
    "journal.compact_ms_p50": "ms", "journal.compactions": "count",
    "journal.anchor_bytes": "bytes", "journal.recover_s": "s",
    "journal.recover_records": "count",
    "snapshot.take_ms_p50": "ms", "snapshot.restore_s": "s",
    "snapshot.replayed_entries": "count",
    "simulator.step_self_ms_p50": "ms", "simulator.steps": "count",
    "scheduler.select_self_ms_p50": "ms", "scheduler.plans": "count",
    "scheduler.plans_per_tick": "1/tick",
    "scheduler.estimates_refreshed_share": "ratio",
    "scheduler.fallbacks": "count",
    "estimation.estimate_us_p50": "us", "estimation.estimates": "count",
    "planner.plan_ms_p50": "ms", "planner.plan_ms_p95": "ms",
    "planner.self_ms_p50": "ms",
    "wcde.ms_per_plan": "ms", "wcde.cache_hit_rate": "ratio",
    "wcde.presolve_hit_rate": "ratio",
    "onion.ms_per_plan": "ms", "onion.feasibility_checks_per_plan": "count",
    "onion.peels_per_plan": "count",
    "mapping.ms_per_plan": "ms",
    "obs.overhead_ratio": "ratio",
    **{f"share.tick.{part}": "ratio" for part in SHARE_PARTS},
    **{f"share.submit.{part}": "ratio" for part in SHARE_PARTS},
    "gen.late_p99_ms": "ms", "fleet.active_p50": "count",
    "trace.server_cpu_s": "s",
}

_KEYED_ROOTS = ("engine.submit", "engine.cancel", "engine.job_status")
ROOT_OF_KIND = {"submit": "engine.submit", "cancel": "engine.cancel",
                 "job": "engine.job_status", "status": "engine.cluster_status",
                 "jobs": "engine.list_jobs", "tick": "engine.tick"}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return float(ordered[rank])


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class SpanTable:
    """Closed spans with their self times, restricted to ``[since, until]``."""

    def __init__(self, spans: Sequence[Optional[list]],
                 since: float = float("-inf"),
                 until: float = float("inf")) -> None:
        self.spans = spans
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        self.self_time = [0.0 if span is None else span[2] - span[1] - covered[i]
                          for i, span in enumerate(spans)]
        self.inside = [i for i, span in enumerate(spans)
                       if span is not None and since <= span[1] <= until]
        #: root index -> layer -> summed self time of the spans under it
        self.by_root: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.by_name: Dict[str, List[int]] = defaultdict(list)
        self.by_layer: Dict[str, float] = defaultdict(float)
        for i in self.inside:
            span = spans[i]
            layer = layer_of(span[0])
            self.by_root[span[4]][layer] += self.self_time[i]
            self.by_name[span[0]].append(i)
            self.by_layer[layer] += self.self_time[i]

    def named(self, name: str) -> List[int]:
        return self.by_name.get(name, [])

    def durations(self, name: str, scale: float) -> List[float]:
        return [(self.spans[i][2] - self.spans[i][1]) * scale
                for i in self.named(name)]

    def self_times(self, name: str, scale: float) -> List[float]:
        return [self.self_time[i] * scale for i in self.named(name)]

    def layer_total(self, layer: str) -> float:
        return self.by_layer.get(layer, 0.0)


def _blocked(sent: float, done: float, own: Optional[int],
             roots: Sequence[Tuple[float, float, int]],
             starts: Sequence[float]) -> float:
    """Seconds of ``[sent, done]`` the engine spent on *other* root calls."""
    total = 0.0
    k = max(0, bisect.bisect_left(starts, sent) - 1)
    while k < len(roots) and roots[k][0] < done:
        start, end, index = roots[k]
        if index != own:
            total += max(0.0, min(end, done) - max(start, sent))
        k += 1
    return total


def split_requests(table: SpanTable, requests: Sequence[Request],
                   since: float, root_of_kind: Dict[str, str]
                   ) -> Dict[str, Any]:
    """Match each request to its root span and split its wall time.

    Matching runs over the whole run (a request pairs with the next
    unclaimed root span of its kind and key, in send order); only
    requests due at or after ``since`` are accumulated.
    """
    spans = table.spans
    roots = sorted((span[1], span[2], i) for i, span in enumerate(spans)
                   if span is not None and span[3] < 0)
    starts = [r[0] for r in roots]
    waiting: Dict[Tuple[str, Any], deque] = defaultdict(deque)
    for _start, _end, index in roots:
        name, attr = spans[index][0], spans[index][5]
        waiting[(name, attr if name in _KEYED_ROOTS else None)].append(index)

    parts: Dict[str, Dict[str, float]] = {
        kind: defaultdict(float) for kind in ("tick", "submit")}
    totals: Dict[str, float] = defaultdict(float)
    http_self: List[float] = []
    engine_self: Dict[str, List[float]] = defaultdict(list)
    for kind, due, sent, done, key in sorted(requests, key=lambda r: r[2]):
        name = root_of_kind.get(kind)
        queue = waiting.get((name, key if name in _KEYED_ROOTS else None))
        own = queue.popleft() if queue else None
        if due < since:
            continue
        own_time = spans[own][2] - spans[own][1] if own is not None else 0.0
        blocked = _blocked(sent, done, own, roots, starts)
        http = max(0.0, (done - sent) - own_time - blocked)
        http_self.append(http * 1000.0)
        under = table.by_root.get(own, {})
        if own is not None:
            engine_self[kind].append(under.get("engine", 0.0))
        if kind in parts:
            totals[kind] += done - due
            parts[kind]["http"] += http
            parts[kind]["queue"] += (sent - due) + blocked
            for layer, seconds in under.items():
                parts[kind][layer] += seconds
    shares = {}
    for kind, split in parts.items():
        for part in SHARE_PARTS:
            shares[f"share.{kind}.{part}"] = (
                split[part] / totals[kind] if totals[kind] else 0.0)
    return {"shares": shares, "http_self_ms": http_self,
            "engine_self": engine_self}


def per_layer(table: SpanTable, requests: Sequence[Request], since: float,
              recovery: Optional[SpanTable] = None,
              root_of_kind: Dict[str, str] = ROOT_OF_KIND) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced run.

    ``root_of_kind`` names the root span a request of each kind causes.
    """
    spans = table.spans
    split = split_requests(table, requests, since, root_of_kind)
    engine_self = split["engine_self"]
    out: Dict[str, float] = dict(split["shares"])
    out["http.self_ms_p50"] = percentile(split["http_self_ms"], 50)

    def p50(values: Sequence[float]) -> float:
        return percentile(values, 50)

    out["protocol.parse_submit_us_p50"] = p50(
        table.durations("protocol.parse_submit", 1e6))
    digests = table.durations("protocol.canonical_digest", 1e3)
    out["protocol.digest_ms_p50"] = p50(digests)
    out["protocol.digest_calls"] = float(len(digests))

    out["engine.submit_self_us_p50"] = p50(
        [s * 1e6 for s in engine_self["submit"]])
    out["engine.cancel_self_us_p50"] = p50(
        [s * 1e6 for s in engine_self["cancel"]])
    out["engine.tick_self_ms_p50"] = p50(
        [s * 1e3 for s in engine_self["tick"]])
    root_reads = [i for i in table.named("engine.job_status")
                  if spans[i][3] < 0]
    out["engine.job_status_us_p50"] = p50(
        [(spans[i][2] - spans[i][1]) * 1e6 for i in root_reads])
    out["engine.list_jobs_ms_p50"] = p50(table.durations("engine.list_jobs", 1e3))
    root_status = [i for i in table.named("engine.cluster_status")
                   if spans[i][3] < 0]
    out["engine.cluster_status_us_p50"] = p50(
        [(spans[i][2] - spans[i][1]) * 1e6 for i in root_status])
    out["tenants.admit_us_p50"] = p50(table.durations("tenants.admit", 1e6))

    appends = table.named("journal.append")
    out["journal.append_us_p50"] = p50(table.durations("journal.append", 1e6))
    fsyncs = table.durations("journal.fsync", 1e6)
    out["journal.fsync_us_p50"] = p50(fsyncs)
    out["journal.fsyncs"] = float(len(fsyncs))
    events = sum(1 for i in appends if spans[i][5] != "checkpoint")
    written = sum(spans[i][5] or 0 for i in table.named("journal.write"))
    out["journal.bytes_per_event"] = written / events if events else 0.0
    checkpoint_parents = {spans[i][3] for i in appends
                          if spans[i][5] == "checkpoint"}
    checkpoints = [(spans[i][2] - spans[i][1]) * 1e3
                   for i in table.named("journal.note_applied")
                   if i in checkpoint_parents]
    out["journal.checkpoint_ms_p50"] = p50(checkpoints)
    out["journal.checkpoints"] = float(len(checkpoints))
    compactions = table.durations("journal.compact", 1e3)
    out["journal.compact_ms_p50"] = p50(compactions)
    out["journal.compactions"] = float(len(compactions))
    out["snapshot.take_ms_p50"] = p50(
        table.durations("snapshot.take_snapshot", 1e3))

    source = recovery if recovery is not None else table
    recovers = source.named("journal.recover_engine")
    out["journal.recover_s"] = float(
        sum(source.durations("journal.recover_engine", 1.0)))
    out["journal.recover_records"] = float(sum(
        source.spans[i][5] or 0 for i in recovers))
    restores = source.named("snapshot.restore_engine")
    out["snapshot.restore_s"] = float(sum(
        source.durations("snapshot.restore_engine", 1.0)))
    out["snapshot.replayed_entries"] = float(sum(
        source.spans[i][5] or 0 for i in restores))

    steps = table.self_times("simulator.step", 1e3)
    out["simulator.step_self_ms_p50"] = p50(steps)
    out["simulator.steps"] = float(len(steps))
    out["scheduler.select_self_ms_p50"] = p50(
        table.self_times("scheduler.select_job", 1e3))
    estimates = table.durations("estimation.estimate", 1e6)
    out["estimation.estimate_us_p50"] = p50(estimates)
    out["estimation.estimates"] = float(len(estimates))

    plans = table.named("planner.plan")
    counters = [spans[i][5] for i in plans if spans[i][5]]
    n_plans = len(plans)
    out["scheduler.plans"] = float(n_plans)
    out["scheduler.plans_per_tick"] = (
        n_plans / len(steps) if steps else 0.0)
    planned_jobs = sum(c["jobs"] for c in counters)
    out["scheduler.estimates_refreshed_share"] = (
        len(estimates) / planned_jobs if planned_jobs else 0.0)
    # A plan under IncrementalPlanner is one round seen twice; time the
    # outermost planner span of each round.
    rounds = [i for i in table.inside
              if layer_of(spans[i][0]) == "planner"
              and (spans[i][3] < 0
                   or layer_of(spans[spans[i][3]][0]) != "planner")]
    out["planner.plan_ms_p50"] = p50(
        [(spans[i][2] - spans[i][1]) * 1e3 for i in rounds])
    out["planner.plan_ms_p95"] = percentile(
        [(spans[i][2] - spans[i][1]) * 1e3 for i in rounds], 95)
    inner_self = {spans[i][3]: table.self_time[i] for i in plans}
    out["planner.self_ms_p50"] = p50(
        [(table.self_time[i] + inner_self.get(i, 0.0)) * 1e3 for i in rounds])
    for layer in ("wcde", "onion", "mapping"):
        out[f"{layer}.ms_per_plan"] = (
            table.layer_total(layer) * 1e3 / n_plans if n_plans else 0.0)
    lookups = sum(c["cache_hits"] + c["cache_misses"] for c in counters)
    out["wcde.cache_hit_rate"] = (
        sum(c["cache_hits"] for c in counters) / lookups if lookups else 0.0)
    out["wcde.presolve_hit_rate"] = (
        sum(c["presolved"] for c in counters) / planned_jobs
        if planned_jobs else 0.0)
    out["onion.feasibility_checks_per_plan"] = (
        sum(c["checks"] for c in counters) / n_plans if n_plans else 0.0)
    out["onion.peels_per_plan"] = (
        sum(c["peels"] for c in counters) / n_plans if n_plans else 0.0)
    return out


def check_nesting(spans: Sequence[Optional[list]]) -> List[str]:
    """Structural problems in a span list (empty when well nested)."""
    problems = []
    table = SpanTable(spans)
    for i, span in enumerate(spans):
        if span is None:
            continue
        parent = span[3]
        if parent >= 0:
            outer = spans[parent]
            if outer is None or not (outer[1] <= span[1] and span[2] <= outer[2]):
                problems.append(f"span {i} ({span[0]}) escapes its parent")
        if table.self_time[i] < -1e-6:
            problems.append(f"span {i} ({span[0]}) has negative self time")
    for root, layers in table.by_root.items():
        whole = spans[root][2] - spans[root][1]
        if abs(sum(layers.values()) - whole) > 0.1 * whole + 1e-6:
            problems.append(f"layers under root {root} do not sum to it")
    return problems
