"""SWF parser and mapping tests: happy path, fuzz, and negative paths.

Every malformed input must surface as a typed
:class:`~repro.errors.TraceFormatError` carrying the 1-based line number
— never a bare ``ValueError`` — so a corrupted archive fails loudly and
debuggably at ingestion.  The mapping tests pin the deterministic
SWF→JobSpec rules documented in ``docs/WORKLOADS.md``.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError, TraceFormatError
from repro.workload.swf import (
    SWF_FIELD_COUNT,
    SwfMapConfig,
    load_swf_workload,
    parse_swf,
    parse_swf_text,
    rebase_arrivals,
    swf_to_specs,
)
from repro.workload.scenarios import bundled_swf_path

HEADER = "; Version: 2.2\n; MaxProcs: 8\n"

#: A valid 18-field record template; format() in the overrides.
_FIELDS = ("{job_number} {submit} {wait} {run} {alloc} {cpu} {mem} "
           "{req_procs} {req_time} {req_mem} {status} {user} {group} "
           "{executable} {queue} {partition} {preceding} {think}")
_DEFAULTS = dict(job_number=1, submit=0, wait=5, run=100, alloc=4,
                 cpu=-1, mem=-1, req_procs=4, req_time=120, req_mem=-1,
                 status=1, user=3, group=2, executable=7, queue=1,
                 partition=-1, preceding=-1, think=-1)


def record(**overrides) -> str:
    values = dict(_DEFAULTS)
    values.update(overrides)
    return _FIELDS.format(**values)


class TestParserHappyPath:
    def test_bundled_excerpt_parses(self):
        trace = parse_swf(bundled_swf_path())
        assert trace.version == "2.2"
        assert trace.max_procs == 240
        assert trace.unix_start_time == 1027839845
        assert len(trace.jobs) == 80
        assert sum(1 for j in trace.jobs if j.cancelled) == 1
        assert sum(1 for j in trace.jobs if j.failed) == 8
        assert all(j.line > 0 for j in trace.jobs)

    def test_minus_one_sentinels_preserved(self):
        trace = parse_swf_text(HEADER + record(mem=-1, req_mem=-1))
        job = trace.jobs[0]
        assert job.used_memory == -1
        assert job.requested_memory == -1

    def test_procs_falls_back_to_requested(self):
        trace = parse_swf_text(HEADER + record(alloc=-1, req_procs=16))
        assert trace.jobs[0].procs == 16

    def test_note_directives_concatenate(self):
        text = "; Note: first\n; Note: second\n" + record()
        trace = parse_swf_text(text)
        assert trace.directives["Note"] == "first\nsecond"

    def test_blank_comment_lines_between_records_tolerated(self):
        text = HEADER + record(job_number=1) + "\n;\n" + record(
            job_number=2, submit=10)
        trace = parse_swf_text(text)
        assert len(trace.jobs) == 2

    def test_parse_is_deterministic(self):
        one = parse_swf(bundled_swf_path())
        two = parse_swf(bundled_swf_path())
        assert one.jobs == two.jobs
        assert dict(one.directives) == dict(two.directives)

    def test_trace_path_is_relative_to_trace_root(self):
        # Absolute input path, portable (basename) stored path: error
        # strings and trace metadata feed digested artifacts that must
        # be byte-identical across checkouts.
        trace = parse_swf(bundled_swf_path())
        assert trace.path is not None
        assert not Path(trace.path).is_absolute()
        assert trace.path == Path(bundled_swf_path()).name

    def test_explicit_trace_root_yields_relative_subpath(self):
        bundled = Path(bundled_swf_path())
        trace = parse_swf(bundled, trace_root=bundled.parent.parent)
        assert trace.path == str(bundled.relative_to(bundled.parent.parent))
        assert not Path(trace.path).is_absolute()

    def test_unrelated_trace_root_falls_back_to_basename(self):
        trace = parse_swf(bundled_swf_path(),
                          trace_root="/nonexistent/elsewhere")
        assert trace.path == Path(bundled_swf_path()).name


class TestParserNegativePaths:
    """Each malformed input raises TraceFormatError with a line number."""

    def expect_error(self, text: str, *needles: str, line: int) -> None:
        with pytest.raises(TraceFormatError) as excinfo:
            parse_swf_text(text, path="bad.swf")
        err = excinfo.value
        assert isinstance(err, ConfigurationError)
        assert err.line == line
        assert err.path == "bad.swf"
        assert f"line {line}" in str(err)
        for needle in needles:
            assert needle in str(err)

    def test_truncated_record(self):
        short = " ".join(record().split()[: SWF_FIELD_COUNT - 1])
        self.expect_error(HEADER + short, "truncated", "17", line=3)

    def test_overlong_record(self):
        long = record() + " 99"
        self.expect_error(HEADER + long, "overlong", "19", line=3)

    def test_non_numeric_field(self):
        self.expect_error(HEADER + record(run="10m"), "non-numeric",
                          "run_time", line=3)

    def test_non_finite_field(self):
        self.expect_error(HEADER + record(run="inf"), "non-finite", line=3)

    def test_fractional_integer_field(self):
        self.expect_error(HEADER + record(job_number="1.5"), "fractional",
                          "job_number", line=3)

    def test_unknown_status_code(self):
        self.expect_error(HEADER + record(status=7), "status", "7", line=3)

    def test_negative_job_number(self):
        self.expect_error(HEADER + record(job_number=-2), "job_number",
                          line=3)

    def test_out_of_order_submit_times(self):
        text = (HEADER + record(job_number=1, submit=100) + "\n"
                + record(job_number=2, submit=50))
        self.expect_error(text, "out-of-order", line=4)

    def test_unknown_header_directive(self):
        self.expect_error("; Bogus: 1\n" + record(), "Bogus", line=1)

    def test_unparseable_header_comment(self):
        self.expect_error("; just some words\n" + record(),
                          "unparseable", line=1)

    def test_directive_after_first_record(self):
        text = record() + "\n; MaxProcs: 8"
        self.expect_error(text, "after the first job record", line=2)

    def test_lenient_mode_relaxes_exactly_the_layout_checks(self):
        text = ("; Bogus: 1\n; free text comment\n"
                + record(job_number=1, submit=100) + "\n"
                + record(job_number=2, submit=50))
        trace = parse_swf_text(text, strict=False)
        assert len(trace.jobs) == 2
        assert "Bogus" not in trace.directives

    def test_lenient_mode_still_rejects_malformed_records(self):
        with pytest.raises(TraceFormatError):
            parse_swf_text(record(run="oops"), strict=False)

    def test_error_without_position_when_path_omitted(self):
        with pytest.raises(TraceFormatError) as excinfo:
            parse_swf_text(record() + " 99")
        assert excinfo.value.path is None
        assert excinfo.value.line == 1

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=200))
    def test_fuzz_never_raises_untyped_errors(self, text):
        """Arbitrary garbage parses or raises TraceFormatError — nothing else."""
        try:
            parse_swf_text(text)
        except TraceFormatError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True) | st.integers()
        | st.text(st.characters(categories=("L", "N", "P", "S")), max_size=6),
        min_size=1, max_size=30))
    def test_fuzz_field_lists_never_raise_untyped_errors(self, fields):
        line = " ".join(str(f) for f in fields)
        try:
            parse_swf_text(HEADER + line)
        except TraceFormatError:
            pass


class TestMapping:
    def test_processor_seconds_preserved(self):
        cfg = SwfMapConfig(capacity=8, slot_seconds=60.0, max_tasks=4)
        trace = parse_swf_text(HEADER + record(run=600, alloc=16))
        (spec,) = swf_to_specs(trace, config=cfg)
        # 16 procs for 600 s = 160 work-slots over min(16, 4) tasks.
        assert spec.task_durations == (40, 40, 40, 40)
        assert sum(spec.task_durations) * cfg.slot_seconds >= 600 * 16

    def test_short_job_gets_at_least_one_slot_per_task(self):
        trace = parse_swf_text(HEADER + record(run=1, alloc=2))
        (spec,) = swf_to_specs(trace)
        assert all(d >= 1 for d in spec.task_durations)

    def test_cancelled_and_zero_runtime_jobs_are_skipped(self):
        text = (HEADER
                + record(job_number=1) + "\n"
                + record(job_number=2, submit=5, status=5) + "\n"
                + record(job_number=3, submit=9, run=0))
        specs = swf_to_specs(parse_swf_text(text))
        assert [s.job_id for s in specs] == ["swf-000001"]

    def test_include_failed_toggle(self):
        text = (HEADER + record(job_number=1) + "\n"
                + record(job_number=2, submit=5, status=0))
        assert len(swf_to_specs(parse_swf_text(text))) == 2
        kept = swf_to_specs(parse_swf_text(text),
                            config=SwfMapConfig(include_failed=False))
        assert [s.job_id for s in kept] == ["swf-000001"]

    def test_max_jobs_truncates_after_skips(self):
        text = HEADER + "\n".join(
            record(job_number=k, submit=10 * k) for k in range(1, 6))
        specs = swf_to_specs(parse_swf_text(text),
                             config=SwfMapConfig(max_jobs=2))
        assert [s.job_id for s in specs] == ["swf-000001", "swf-000002"]

    def test_arrivals_rebased_to_slot_zero(self):
        text = (HEADER + record(job_number=1, submit=5000) + "\n"
                + record(job_number=2, submit=5300))
        specs = swf_to_specs(parse_swf_text(text),
                             config=SwfMapConfig(slot_seconds=60.0))
        assert specs[0].arrival == 0
        assert specs[1].arrival == 5  # 300 s / 60 s-per-slot

    def test_template_label_prefers_executable_then_queue(self):
        text = (HEADER + record(job_number=1, executable=7) + "\n"
                + record(job_number=2, submit=5, executable=-1, queue=2) + "\n"
                + record(job_number=3, submit=9, executable=-1, queue=-1))
        specs = swf_to_specs(parse_swf_text(text))
        assert [s.template for s in specs] == [
            "swf-app-7", "swf-queue-2", "swf-misc"]

    def test_requested_time_becomes_prior(self):
        cfg = SwfMapConfig(slot_seconds=60.0, max_tasks=4)
        trace = parse_swf_text(HEADER + record(run=600, alloc=4,
                                               req_time=1200))
        (spec,) = swf_to_specs(trace, config=cfg)
        # 1200 s * 4 procs over 4 tasks of 60 s slots = 20 slots per task.
        assert spec.prior_runtime == pytest.approx(20.0)

    def test_uniform_classify_rule(self):
        specs = load_swf_workload(
            bundled_swf_path(), config=SwfMapConfig(classify="uniform"))
        assert {s.sensitivity for s in specs} == {"sensitive"}

    def test_tercile_classify_covers_all_classes(self):
        specs = load_swf_workload(bundled_swf_path())
        assert {s.sensitivity for s in specs} == {
            "critical", "sensitive", "insensitive"}

    def test_budget_is_ratio_times_benchmark(self):
        specs = load_swf_workload(
            bundled_swf_path(), config=SwfMapConfig(budget_ratio=3.0))
        for spec in specs:
            assert spec.budget == pytest.approx(3.0 * spec.benchmark_runtime)
            assert math.isfinite(spec.budget)

    def test_mapping_is_deterministic(self):
        one = load_swf_workload(bundled_swf_path())
        two = load_swf_workload(bundled_swf_path())
        assert [s.job_id for s in one] == [s.job_id for s in two]
        assert [s.task_durations for s in one] == [
            s.task_durations for s in two]

    def test_bad_map_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SwfMapConfig(slot_seconds=0.0)
        with pytest.raises(ConfigurationError):
            SwfMapConfig(max_tasks=0)
        with pytest.raises(ConfigurationError):
            SwfMapConfig(classify="quartile")
        with pytest.raises(ConfigurationError):
            SwfMapConfig(max_jobs=0)

    @pytest.mark.parametrize("field", ["slot_seconds", "budget_ratio"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_map_config_rejected(self, field, value):
        """NaN compares false against ``<= 0``; infinity is no width."""
        with pytest.raises(ConfigurationError, match=field):
            SwfMapConfig(**{field: value})

    def test_ingestion_metrics_emitted_when_enabled(self):
        handle = obs.enable(trace=False, metrics=True, ledger=False)
        load_swf_workload(bundled_swf_path())
        snapshot = handle.metrics.snapshot()
        assert snapshot["rush_swf_lines_total"]["values"] == [[[], 97.0]]
        assert snapshot["rush_swf_records_total"]["values"] == [[[], 80.0]]
        outcomes = dict(
            (tuple(labels)[0], count) for labels, count
            in snapshot["rush_swf_jobs_total"]["values"])
        assert outcomes["ingested"] == 79.0
        assert outcomes["skipped-cancelled"] == 1.0


class TestRebaseArrivals:
    def test_empty_and_identity(self):
        assert rebase_arrivals([]) == []
        specs = load_swf_workload(bundled_swf_path())
        assert rebase_arrivals(specs) == list(specs)

    def test_shifts_to_requested_start(self):
        specs = load_swf_workload(bundled_swf_path())
        tail = [s for s in specs if s.arrival > 0]
        rebased = rebase_arrivals(tail, start_at=0)
        assert min(s.arrival for s in rebased) == 0
        gaps = [s.arrival for s in tail]
        assert [s.arrival - rebased[0].arrival for s in rebased] == [
            g - gaps[0] for g in gaps]
