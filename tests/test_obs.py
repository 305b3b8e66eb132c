"""The observability layer: spans, metrics, ledger, exporters, goldens.

Property-based coverage of the invariants ``repro.obs`` advertises:

* span trees are *well-nested* — for any two spans the ``[seq,
  end_seq]`` intervals either nest or are disjoint — and sequence
  numbers strictly increase in open order, under arbitrary interleaved
  open/close/event/slot operations (hypothesis-driven state machine);
* histogram bucket counts always sum to the observation count, and the
  rendered Prometheus cumulative ``+Inf`` bucket equals ``_count``;
* two same-seed simulations produce byte-identical metric snapshots and
  span traces; enabling the tracer does not perturb the schedule (the
  ``SimulationResult`` is bit-identical minus wall-clock profiling);
* the golden files under ``tests/golden/`` pin the exact trace JSONL
  and metrics text of one seeded run;
* the exposition survives arbitrary label values (render → parse back
  the same samples), and ``repro.obs.metrics.CATALOG`` is the one
  declaration of every ``rush_*`` series: it matches the table in
  docs/OBSERVABILITY.md row for row, every series the product emits is
  a row, and an uncatalogued name fails at the call site.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.analysis.calibration import calibration_report
from repro.cluster.simulator import run_simulation
from repro.errors import ConfigurationError
from repro.obs.export import (read_trace_jsonl, trace_jsonl_lines,
                              write_metrics_text, write_trace_jsonl)
from repro.obs.ledger import CompletionLedger
from repro.obs.metrics import CATALOG, MetricsRegistry, NullMetrics
from repro.obs.trace import NullTracer, SpanTracer, json_safe
from repro.schedulers import FifoScheduler, RushScheduler
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

GOLDEN = Path(__file__).resolve().parent / "golden"

SMALL = WorkloadConfig(n_jobs=4, capacity=4, mean_interarrival=120.0,
                       budget_ratio=1.5, size_gb_range=(0.5, 1.0),
                       time_scale=0.25)


def small_specs(seed: int = 11):
    return WorkloadGenerator(SMALL, seed=seed).generate()


def result_dict_without_wall_clock(result):
    """``to_dict()`` minus the fields legitimately run-dependent."""
    data = result.to_dict()
    data.pop("planner_seconds", None)
    data.pop("metrics", None)
    return data


# ---------------------------------------------------------------------------
# Span tracer: hypothesis state machine over open/close/event/slot ops
# ---------------------------------------------------------------------------

span_ops = st.lists(
    st.one_of(
        st.tuples(st.just("open"),
                  st.sampled_from(["wcde", "onion", "map", "plan"])),
        st.tuples(st.just("close"), st.just("")),
        st.tuples(st.just("event"), st.sampled_from(["hit", "miss"])),
        st.tuples(st.just("slot"), st.integers(min_value=0, max_value=9)),
    ),
    max_size=80)


def run_ops(tracer: SpanTracer, ops):
    """Drive the tracer through an op list; close leftovers at the end."""
    stack = []
    slot = 0
    for kind, arg in ops:
        if kind == "open":
            stack.append(tracer.span(arg, op="test"))
        elif kind == "close" and stack:
            stack.pop().__exit__(None, None, None)
        elif kind == "event":
            tracer.event(arg)
        elif kind == "slot":
            slot += int(arg)
            tracer.set_slot(slot)
    while stack:
        stack.pop().__exit__(None, None, None)


class TestSpanTracerProperties:
    @given(ops=span_ops)
    @settings(max_examples=80, deadline=None)
    def test_seqs_strictly_increase_in_open_order(self, ops):
        tracer = SpanTracer()
        run_ops(tracer, ops)
        seqs = [s.seq for s in tracer.spans]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert all(s.seq >= 1 for s in tracer.spans)

    @given(ops=span_ops)
    @settings(max_examples=80, deadline=None)
    def test_all_spans_close_with_end_after_open(self, ops):
        tracer = SpanTracer()
        run_ops(tracer, ops)
        for span in tracer.spans:
            assert span.closed
            assert span.end_seq >= span.seq
            assert span.end_slot >= span.slot

    @given(ops=span_ops)
    @settings(max_examples=80, deadline=None)
    def test_intervals_are_well_nested(self, ops):
        tracer = SpanTracer()
        run_ops(tracer, ops)
        spans = tracer.spans
        for i, a in enumerate(spans):
            for b in spans[i + 1:]:
                nested = ((a.seq <= b.seq and b.end_seq <= a.end_seq)
                          or (b.seq <= a.seq and a.end_seq <= b.end_seq))
                disjoint = a.end_seq < b.seq or b.end_seq < a.seq
                assert nested or disjoint, (a.to_dict(), b.to_dict())

    @given(ops=span_ops)
    @settings(max_examples=80, deadline=None)
    def test_parent_links_contain_children(self, ops):
        tracer = SpanTracer()
        run_ops(tracer, ops)
        by_seq = {s.seq: s for s in tracer.spans}
        for span in tracer.spans:
            if span.parent_seq is None:
                assert span.depth == 0
                continue
            parent = by_seq[span.parent_seq]
            assert span.depth == parent.depth + 1
            assert parent.seq < span.seq
            assert span.end_seq <= parent.end_seq

    @given(ops=span_ops)
    @settings(max_examples=40, deadline=None)
    def test_jsonl_lines_roundtrip_every_span(self, ops):
        tracer = SpanTracer()
        run_ops(tracer, ops)
        lines = trace_jsonl_lines(tracer)
        assert [json.loads(line) for line in lines] == tracer.to_dicts()


class TestSpanTracerUnits:
    def test_events_are_zero_width(self):
        tracer = SpanTracer()
        event = tracer.event("cache.hit", theta=0.9)
        assert event.end_seq == event.seq
        assert event.closed

    def test_exception_is_noted_and_span_closed(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("solve"):
                raise ValueError("boom")
        (span,) = tracer.spans
        assert span.closed
        assert span.payload["error"] == "ValueError"

    def test_jsonl_file_roundtrip(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("outer", jobs=2):
            tracer.event("inner")
        path = tmp_path / "trace.jsonl"
        assert write_trace_jsonl(tracer, str(path)) == 2
        assert read_trace_jsonl(str(path)) == tracer.to_dicts()

    def test_forgotten_child_is_closed_with_parent(self):
        tracer = SpanTracer()
        with tracer.span("parent"):
            tracer.span("dangling")  # no with: stays open
        parent, child = tracer.spans
        assert child.closed
        assert parent.seq <= child.seq <= child.end_seq <= parent.end_seq

    def test_json_safe_coerces_numpy_and_objects(self):
        import numpy as np
        assert json_safe(np.int64(3)) == 3
        assert json_safe((1, np.float64(2.5))) == [1, 2.5]
        assert json_safe(object()).startswith("<object")

    def test_null_tracer_is_inert(self):
        tracer = NullTracer()
        with tracer.span("x", a=1) as span:
            span.note(b=2)
        tracer.event("y")
        tracer.set_slot(5)
        assert tracer.to_dicts() == []
        assert not tracer.active


# ---------------------------------------------------------------------------
# Metrics: histogram invariant, rendering, registry semantics
# ---------------------------------------------------------------------------

bucket_bounds = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    min_size=1, max_size=6, unique=True).map(sorted)

observations = st.lists(
    st.floats(min_value=-1e6, max_value=1e6,
              allow_nan=False, allow_infinity=False),
    max_size=100)


class TestHistogramProperties:
    @given(bounds=bucket_bounds, values=observations)
    @settings(max_examples=100, deadline=None)
    def test_bucket_counts_sum_to_observation_count(self, bounds, values):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=bounds)
        for v in values:
            hist.observe(v)
        state = hist.state()
        if not values:
            assert state is None
            return
        assert sum(state.bucket_counts) == len(values) == state.count

    @given(bounds=bucket_bounds, values=observations)
    @settings(max_examples=100, deadline=None)
    def test_bucket_assignment_matches_upper_inclusive_bounds(
            self, bounds, values):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=bounds)
        for v in values:
            hist.observe(v)
        expected = [0] * (len(bounds) + 1)
        for v in values:
            idx = len(bounds)
            for i, bound in enumerate(bounds):
                if v <= bound:
                    idx = i
                    break
            expected[idx] += 1
        state = hist.state()
        got = state.bucket_counts if state else [0] * (len(bounds) + 1)
        assert got == expected

    @given(bounds=bucket_bounds, values=observations)
    @settings(max_examples=50, deadline=None)
    def test_rendered_inf_bucket_equals_count(self, bounds, values):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=bounds)
        for v in values:
            hist.observe(v)
        for line in hist.render():
            if 'le="+Inf"' in line:
                assert int(line.rsplit(" ", 1)[1]) == len(values)


class TestRegistry:
    def test_counter_rejects_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.counter("c").inc(-1)

    def test_get_or_create_rejects_kind_change(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_label_arity_is_enforced(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("kind",))
        with pytest.raises(ConfigurationError):
            counter.labels("a", "b")

    def test_histogram_requires_increasing_buckets(self):
        registry = MetricsRegistry()
        with pytest.raises(ConfigurationError):
            registry.histogram("h", buckets=[2.0, 1.0])

    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.counter("jobs_total", help="Jobs", unit="jobs").inc(3)
        registry.gauge("depth").set(2.5)
        hist = registry.histogram("lat", buckets=[1.0, 2.0])
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.render_prometheus()
        assert "# HELP jobs_total Jobs [jobs]" in text
        assert "jobs_total 3" in text
        assert "depth 2.5" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 5.5" in text
        assert "lat_count 2" in text
        assert text.endswith("\n")

    def test_snapshot_is_deterministic_json(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b_total", labels=("k",)).labels("y").inc(2)
            registry.counter("b_total", labels=("k",)).labels("x").inc(1)
            registry.gauge("a").set(7)
            return json.dumps(registry.snapshot(), sort_keys=True)
        assert build() == build()

    def test_help_text_is_escaped_onto_one_line(self):
        registry = MetricsRegistry()
        registry.counter("c_total", help="a\\b\nc").inc()
        assert registry.render_prometheus().split("\n")[0] == \
            "# HELP c_total a\\\\b\\nc"

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.tuples(st.text(), st.text()), min_size=1,
                         max_size=6, unique=True))
    def test_label_values_round_trip_through_the_exposition(self, keys):
        """One label value must not be able to break the page: a tenant
        named ``a"b\\c⏎d`` used to render its sample across two lines."""
        registry = MetricsRegistry()
        counter = registry.counter("c_total", labels=("tenant", "kind"))
        hist = registry.histogram("h", buckets=[1.0], labels=("tenant",))
        for n, (tenant, kind) in enumerate(keys, start=1):
            counter.labels(tenant, kind).inc(n)
            hist.labels(tenant).observe(n)
        samples = [parse_sample(line)
                   for line in registry.render_prometheus().split("\n")
                   if line and not line.startswith("#")]
        counted = {(labels["tenant"], labels["kind"]): value
                   for name, labels, value in samples if name == "c_total"}
        assert counted == {key: float(n)
                           for n, key in enumerate(keys, start=1)}
        tenants = {tenant for tenant, _ in keys}
        assert {labels["tenant"] for name, labels, _ in samples
                if name == "h_count"} == tenants
        assert {(labels["tenant"], labels["le"]) for name, labels, _
                in samples if name == "h_bucket"} == {
                    (tenant, le) for tenant in tenants
                    for le in ("1", "+Inf")}

    def test_null_metrics_swallow_everything(self):
        null = NullMetrics()
        obs.install(metrics=null)
        obs.count("rush_wcde_cache_total", 1, "hit")
        obs.set_gauge("rush_sim_queue_depth", 1)
        obs.observe("rush_sim_utilization", 2)
        assert null.metrics() == []
        assert null.snapshot() == {}
        assert null.render_prometheus() == ""
        assert not null.active


def parse_sample(line):
    """One exposition line -> (name, {label: value}, value), unescaped."""
    brace = line.find("{")
    if brace < 0:
        name, value = line.rsplit(" ", 1)
        return name, {}, float(value)
    labels = {}
    i = brace + 1
    while line[i] != "}":
        eq = line.index("=", i)
        assert line[eq + 1] == '"'
        chars = []
        j = eq + 2
        while line[j] != '"':
            if line[j] == "\\":
                j += 1
                chars.append({"n": "\n", "\\": "\\", '"': '"'}[line[j]])
            else:
                chars.append(line[j])
            j += 1
        labels[line[i:eq]] = "".join(chars)
        i = j + 1
        while line[i] in ", ":
            i += 1
    return line[:brace], labels, float(line[i + 2:])


# ---------------------------------------------------------------------------
# The signal census: one catalog, one declaration per series
# ---------------------------------------------------------------------------

def docs_catalog_rows():
    """The catalog table of docs/OBSERVABILITY.md, parsed."""
    text = (Path(__file__).resolve().parents[1] / "docs"
            / "OBSERVABILITY.md").read_text()
    table = text.split("| series | kind | scope | meaning | reader |")[1]
    rows = {}
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        series, kind, scope, _meaning, reader = (
            cell.strip() for cell in line.strip("|").split("|"))
        match = re.fullmatch(r"`(rush_[a-z_]+)(?:\{([a-z_,]+)\})?`", series)
        rows[match.group(1)] = (
            kind.split()[0], tuple((match.group(2) or "").split(","))
            if match.group(2) else (), scope, reader)
    return rows


class TestCatalog:
    def test_catalog_matches_the_docs_table_row_for_row(self):
        documented = docs_catalog_rows()
        assert list(documented) == list(CATALOG)
        for name, row in CATALOG.items():
            assert row.reader.strip(), f"{name} names no reader"
            assert documented[name] == (
                row.kind, row.labels,
                "journal" if row.journal_derived else "process", row.reader)

    def test_uncatalogued_or_mistyped_name_fails_at_the_call_site(self):
        obs.count("rush_no_such_series_total")  # obs off: nothing resolves
        obs.enable(trace=False, metrics=True, ledger=False)
        with pytest.raises(ConfigurationError, match="CATALOG"):
            obs.count("rush_no_such_series_total")
        with pytest.raises(ConfigurationError, match="counter"):
            obs.observe("rush_plans_total", 1.0)
        with pytest.raises(ConfigurationError, match="label"):
            obs.count("rush_wcde_cache_total", 1)
        assert not any(entry["values"] for entry
                       in obs.get_metrics().snapshot().values())

    def test_every_series_the_product_emits_is_a_catalog_row(self, tmp_path):
        """Golden run ∪ a journaled service run (cancel, fault plan, forced
        solver fault) ∪ the hpc-replay scenario: nothing is emitted that
        the catalog does not declare, and no row is dead — only the two
        journal-failure series need a failing disk (tests/test_journal.py)."""
        from repro.faults import default_chaos_plan
        from repro.service import ServiceConfig, open_journal
        from repro.workload.scenarios import run_scenario

        emitted = set(golden_run().metrics.snapshot())
        metrics = obs.enable(trace=False, metrics=True, ledger=False).metrics
        engine, _writer = open_journal(tmp_path, ServiceConfig(
            capacity=2, policy="rush",
            fault_spec=default_chaos_plan(seed=3).to_spec()))
        for k in range(3):
            engine.submit({"task_durations": [2, 3], "job_id": f"j{k}"})
        engine.tick(2)
        engine.cancel("j2")
        engine.inject_solver_fault(2)
        engine.tick(30)
        engine.close()
        emitted |= set(metrics.snapshot())
        obs.reset()
        emitted |= set(run_scenario("hpc-replay", seed=0,
                                    baselines=()).ingestion_metrics)
        assert emitted <= set(CATALOG)
        assert set(CATALOG) - emitted == {
            "rush_journal_housekeeping_failures_total",
            "rush_journal_recovery_truncated_bytes"}


# ---------------------------------------------------------------------------
# Ledger + calibration
# ---------------------------------------------------------------------------

class TestLedger:
    def test_first_and_last_predictions_are_kept(self):
        ledger = CompletionLedger()
        ledger.predict("j", 0, 100.0, theta=0.9)
        ledger.predict("j", 5, 90.0, theta=0.9)
        ledger.realize("j", 88)
        (entry,) = ledger.entries()
        assert entry.first_predicted == 100.0
        assert entry.last_predicted == 90.0
        assert entry.actual == 88
        assert entry.predictions == 2

    def test_predictions_after_realize_are_ignored(self):
        ledger = CompletionLedger()
        ledger.predict("j", 0, 100.0, theta=0.9)
        ledger.realize("j", 50)
        ledger.predict("j", 60, 200.0, theta=0.9)
        ledger.realize("j", 70)
        (entry,) = ledger.entries()
        assert entry.last_predicted == 100.0
        assert entry.actual == 50
        assert entry.predictions == 1

    def test_realize_of_unknown_job_is_ignored(self):
        ledger = CompletionLedger()
        ledger.realize("ghost", 5)
        assert ledger.entries() == []

    def test_calibration_coverage_and_verdict(self):
        ledger = CompletionLedger()
        for i, (predicted, actual) in enumerate(
                [(100.0, 90), (50.0, 60), (30.0, 30), (200.0, 150)]):
            ledger.predict(f"j{i}", 0, predicted, theta=0.5)
            ledger.realize(f"j{i}", actual)
        report = calibration_report(ledger)
        assert report.theta == 0.5
        assert report.coverage_last == pytest.approx(0.75)
        assert report.calibrated
        assert "CALIBRATED" in report.summary_table()
        assert report.to_dict()["coverage_last"] == pytest.approx(0.75)

    def test_censored_jobs_do_not_count_against_coverage(self):
        ledger = CompletionLedger()
        ledger.predict("done", 0, 10.0, theta=0.9)
        ledger.realize("done", 8)
        ledger.predict("running", 0, 10.0, theta=0.9)
        report = calibration_report(ledger)
        assert len(report.realized_rows) == 1
        assert report.coverage_last == 1.0
        assert "censored" in report.summary_table()


# ---------------------------------------------------------------------------
# Process-wide install / enable / reset
# ---------------------------------------------------------------------------

class TestObsGlobals:
    def test_defaults_are_null(self):
        assert not obs.get_tracer().active
        assert not obs.get_metrics().active
        assert not obs.get_ledger().active

    def test_enable_subset_nulls_the_rest(self):
        handle = obs.enable(trace=True, metrics=False, ledger=False)
        assert handle.tracer.active
        assert not handle.metrics.active
        assert obs.get_tracer() is handle.tracer
        obs.reset()
        assert not obs.get_tracer().active

    def test_install_replaces_only_what_is_given(self):
        tracer = SpanTracer()
        handle = obs.install(tracer=tracer)
        assert handle.tracer is tracer
        assert not handle.metrics.active


# ---------------------------------------------------------------------------
# End-to-end: simulator integration, determinism, on/off bit-identity
# ---------------------------------------------------------------------------

class TestSimulatorIntegration:
    def _run(self, *, seed=11, enable=None):
        if enable:
            obs.enable(**enable)
        try:
            return run_simulation(small_specs(), 4, RushScheduler(),
                                  seed=seed, max_slots=20_000)
        finally:
            pass  # conftest resets obs after the test

    def test_metrics_snapshots_identical_across_same_seed_runs(self):
        snapshots = []
        for _ in range(2):
            handle = obs.enable(trace=False, metrics=True, ledger=False)
            run_simulation(small_specs(), 4, RushScheduler(),
                           seed=11, max_slots=20_000)
            snapshots.append(json.dumps(handle.metrics.snapshot(),
                                        sort_keys=True))
            obs.reset()
        assert snapshots[0] == snapshots[1]
        assert "rush_wcde_cache_total" in snapshots[0]

    def test_traces_identical_across_same_seed_runs(self):
        traces = []
        for _ in range(2):
            handle = obs.enable(trace=True, metrics=False, ledger=False)
            run_simulation(small_specs(), 4, RushScheduler(),
                           seed=11, max_slots=20_000)
            traces.append("\n".join(trace_jsonl_lines(handle.tracer)))
            obs.reset()
        assert traces[0] == traces[1]
        assert '"name":"planner.plan"' in traces[0]

    def test_tracing_does_not_perturb_the_schedule(self):
        baseline = run_simulation(small_specs(), 4, RushScheduler(),
                                  seed=11, max_slots=20_000)
        obs.enable(trace=True, metrics=True, ledger=True)
        traced = run_simulation(small_specs(), 4, RushScheduler(),
                                seed=11, max_slots=20_000)
        obs.reset()
        assert (result_dict_without_wall_clock(traced)
                == result_dict_without_wall_clock(baseline))

    def test_result_carries_snapshot_only_when_enabled(self):
        plain = run_simulation(small_specs(), 4, FifoScheduler(),
                               seed=11, max_slots=20_000)
        assert plain.metrics_snapshot() == {}
        assert "metrics" not in plain.to_dict()
        obs.enable(trace=False, metrics=True, ledger=False)
        measured = run_simulation(small_specs(), 4, FifoScheduler(),
                                  seed=11, max_slots=20_000)
        obs.reset()
        snap = measured.metrics_snapshot()
        assert snap
        assert "rush_sim_queue_depth" in snap
        assert measured.to_dict()["metrics"] == snap

    def test_ledger_feeds_a_scoreable_calibration_report(self):
        handle = obs.enable(trace=False, metrics=False, ledger=True)
        run_simulation(small_specs(), 4, RushScheduler(),
                       seed=11, max_slots=20_000)
        report = calibration_report(handle.ledger)
        obs.reset()
        assert report.rows
        assert report.theta == pytest.approx(0.9)
        assert all(r.realized for r in report.rows)

    def test_fault_injections_are_counted_by_kind(self):
        from repro.faults import default_chaos_plan
        handle = obs.enable(trace=False, metrics=True, ledger=False)
        result = run_simulation(small_specs(), 4, RushScheduler(), seed=11,
                                max_slots=20_000,
                                faults=default_chaos_plan(seed=11))
        counted = {key[0]: value for key, value in (
            (tuple(labels), value) for labels, value in
            handle.metrics.snapshot()
            ["rush_fault_injections_total"]["values"])}
        obs.reset()
        assert sum(counted.values()) == len(result.fault_events)


# ---------------------------------------------------------------------------
# Golden files: one seeded run, byte-identical artifacts
# ---------------------------------------------------------------------------

def golden_run():
    """The pinned scenario behind tests/golden/obs_*; see regeneration
    instructions in docs/OBSERVABILITY.md."""
    handle = obs.enable(trace=True, metrics=True, ledger=False)
    run_simulation(small_specs(seed=11), 4, RushScheduler(),
                   seed=11, max_slots=20_000)
    return handle


class TestGoldenArtifacts:
    def test_span_trace_matches_golden(self):
        handle = golden_run()
        lines = trace_jsonl_lines(handle.tracer)
        obs.reset()
        expected = (GOLDEN / "obs_spans.jsonl").read_text().splitlines()
        assert lines == expected

    def test_metrics_text_matches_golden(self, tmp_path):
        handle = golden_run()
        text = handle.metrics.render_prometheus()
        write_metrics_text(handle.metrics, str(tmp_path / "m.txt"))
        obs.reset()
        assert (tmp_path / "m.txt").read_text() == text
        assert text == (GOLDEN / "obs_metrics.txt").read_text()
