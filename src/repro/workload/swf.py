"""Standard Workload Format (SWF) ingestion.

The evaluation so far runs on synthetic Section V-B workloads; this
module opens the door to *real* traces.  SWF is the archive format of the
Parallel Workloads Archive: a header of ``;``-prefixed directives
(``; Version: 2.2``, ``; MaxProcs: 240``, ...) followed by one job per
line with exactly :data:`SWF_FIELD_COUNT` whitespace-separated numeric
fields, ``-1`` marking unknown values.

The parser here is deliberately *strict*: truncated records, non-numeric
fields, out-of-order submit times, unknown header directives and unknown
status codes all raise :class:`~repro.errors.TraceFormatError` carrying
the 1-based line number, so a corrupted archive fails loudly at ingestion
instead of silently skewing an experiment.  ``strict=False`` relaxes
exactly the two checks real archives most often violate (unknown
directives, submit-time monotonicity) without ever accepting a malformed
record.

:func:`swf_to_specs` then maps the parsed jobs onto the simulator's
:class:`~repro.cluster.job.JobSpec` machinery: a rigid job of ``p``
processors running ``t`` seconds becomes ``min(p, max_tasks)`` tasks
whose per-task slot durations preserve the job's total processor-seconds
of work.  The mapping table lives in ``docs/WORKLOADS.md``; every rule is
deterministic, so a trace maps to byte-identical specs on every run.
Ingestion feeds the :mod:`repro.obs` metrics registry (when enabled)
with ``rush_swf_*`` counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro import obs
from repro.errors import ConfigurationError, TraceFormatError
from repro.cluster.job import JobSpec
from repro.utility.base import UtilityFunction
from repro.utility.constant import ConstantUtility
from repro.utility.sigmoid import SigmoidUtility
from repro.workload.templates import JobTemplate

__all__ = [
    "SWF_FIELD_COUNT",
    "FIELD_NAMES",
    "KNOWN_DIRECTIVES",
    "KNOWN_STATUSES",
    "SwfJob",
    "SwfTrace",
    "SwfMapConfig",
    "parse_swf",
    "parse_swf_lines",
    "parse_swf_text",
    "swf_to_specs",
    "load_swf_workload",
    "rebase_arrivals",
]

#: An SWF job record has exactly this many whitespace-separated fields.
SWF_FIELD_COUNT = 18

#: Header directives of the SWF version 2.x standard.  Anything else is a
#: format error in strict mode (typo'd directives silently changing the
#: trace's meaning is precisely the failure mode strictness exists for).
KNOWN_DIRECTIVES = frozenset({
    "Version", "Computer", "Installation", "Acknowledge", "Information",
    "Conversion", "MaxJobs", "MaxRecords", "Preemption", "UnixStartTime",
    "TimeZone", "TimeZoneString", "StartTime", "EndTime", "MaxNodes",
    "MaxProcs", "MaxRuntime", "MaxMemory", "AllowOveruse", "MaxQueues",
    "Queues", "Queue", "MaxPartitions", "Partitions", "Partition", "Note",
})

#: SWF status codes: 0 failed, 1 completed, 2/3/4 partial-execution
#: variants (checkpointed / swapped-out flavours), 5 cancelled.
KNOWN_STATUSES = frozenset({-1, 0, 1, 2, 3, 4, 5})
_CANCELLED = 5
_FAILED = 0

#: The 18 record fields, in order, as named by the SWF standard.
FIELD_NAMES: Tuple[str, ...] = (
    "job_number", "submit_time", "wait_time", "run_time",
    "allocated_procs", "avg_cpu_time", "used_memory",
    "requested_procs", "requested_time", "requested_memory",
    "status", "user_id", "group_id", "executable", "queue",
    "partition", "preceding_job", "think_time",
)

# Fields that must parse as integers (ids, counts, codes); the rest are
# seconds/kilobyte quantities real archives record fractionally.
_INT_FIELDS = frozenset({
    "job_number", "allocated_procs", "requested_procs", "status",
    "user_id", "group_id", "executable", "queue", "partition",
    "preceding_job",
})


@dataclass(frozen=True)
class SwfJob:
    """One parsed SWF record; ``-1`` sentinels are preserved verbatim.

    ``line`` is the 1-based source line, kept so downstream mapping
    errors can still point back into the archive.
    """

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float
    used_memory: float
    requested_procs: int
    requested_time: float
    requested_memory: float
    status: int
    user_id: int
    group_id: int
    executable: int
    queue: int
    partition: int
    preceding_job: int
    think_time: float
    line: int = 0

    @property
    def cancelled(self) -> bool:
        return self.status == _CANCELLED

    @property
    def failed(self) -> bool:
        return self.status == _FAILED

    @property
    def procs(self) -> int:
        """Best-known processor count: allocated, else requested."""
        if self.allocated_procs > 0:
            return self.allocated_procs
        return self.requested_procs


@dataclass(frozen=True)
class SwfTrace:
    """A parsed SWF archive: header directives plus the job records."""

    directives: Mapping[str, str]
    jobs: Tuple[SwfJob, ...]
    path: Optional[str] = None

    @property
    def version(self) -> Optional[str]:
        return self.directives.get("Version")

    @property
    def max_procs(self) -> Optional[int]:
        raw = self.directives.get("MaxProcs")
        return int(float(raw)) if raw is not None else None

    @property
    def unix_start_time(self) -> Optional[int]:
        raw = self.directives.get("UnixStartTime")
        return int(float(raw)) if raw is not None else None


def _parse_directive(stripped: str, strict: bool,
                     directives: Dict[str, str]) -> None:
    """Parse one ``;`` header/comment line into ``directives``.

    Raises :class:`TraceFormatError` *without* position info; the caller
    attaches the line number and path exactly once.
    """
    body = stripped.lstrip(";").strip()
    if not body:
        return  # blank comment/separator line
    key, sep, value = body.partition(":")
    key = key.strip()
    if not sep or " " in key:
        # Free-text comment.  The standard only blesses these as
        # continuations of a Note; strict mode refuses to guess.
        if strict:
            raise TraceFormatError(
                f"unparseable header comment {body[:40]!r} "
                "(expected '; Directive: value')")
        return
    if key not in KNOWN_DIRECTIVES:
        if strict:
            raise TraceFormatError(
                f"unknown header directive {key!r} "
                "(not in the SWF v2 standard)")
        return
    # Notes repeat; later occurrences of scalar directives win, which is
    # how archive fix-ups in the wild are layered.
    if key == "Note" and "Note" in directives:
        directives[key] = directives[key] + "\n" + value.strip()
    else:
        directives[key] = value.strip()


def _parse_record(stripped: str, lineno: int) -> SwfJob:
    """Parse one 18-field job record line (position-free errors)."""
    parts = stripped.split()
    if len(parts) != SWF_FIELD_COUNT:
        kind = "truncated" if len(parts) < SWF_FIELD_COUNT else "overlong"
        raise TraceFormatError(
            f"{kind} record: expected {SWF_FIELD_COUNT} fields, "
            f"got {len(parts)}")
    values: Dict[str, Union[int, float]] = {}
    for name, raw in zip(FIELD_NAMES, parts):
        try:
            number = float(raw)
        except ValueError:
            raise TraceFormatError(
                f"non-numeric {name} field {raw!r}") from None
        if not math.isfinite(number):
            raise TraceFormatError(f"non-finite {name} field {raw!r}")
        if name in _INT_FIELDS:
            if number != int(number):  # rushlint: disable=RL003 (exact integrality test on a parsed id/count field)
                raise TraceFormatError(
                    f"fractional {name} field {raw!r} (must be an integer)")
            values[name] = int(number)
        else:
            values[name] = number
    status = int(values["status"])
    if status not in KNOWN_STATUSES:
        raise TraceFormatError(
            f"unknown status code {status} (known: {sorted(KNOWN_STATUSES)})")
    if int(values["job_number"]) < 0:
        raise TraceFormatError(f"negative job_number {values['job_number']}")
    return SwfJob(line=lineno, **values)  # type: ignore[arg-type]


def parse_swf_lines(lines: Iterable[str], *, strict: bool = True,
                    path: Optional[str] = None) -> SwfTrace:
    """Parse SWF content given as an iterable of lines.

    Directive lines must precede all job records (the standard's layout);
    a stray comment between records is tolerated only when it is blank.
    """
    directives: Dict[str, str] = {}
    jobs: List[SwfJob] = []
    last_submit = -math.inf
    saw_record = False
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped:
            continue
        if stripped.startswith(";"):
            if saw_record and strict and stripped.lstrip(";").strip():
                raise TraceFormatError(
                    "header directive after the first job record",
                    line=lineno, path=path)
            try:
                _parse_directive(stripped, strict, directives)
            except TraceFormatError as exc:
                raise TraceFormatError(exc.args[0], line=lineno,
                                       path=path) from None
            continue
        try:
            job = _parse_record(stripped, lineno)
        except TraceFormatError as exc:
            raise TraceFormatError(exc.args[0], line=lineno,
                                   path=path) from None
        if strict and job.submit_time < last_submit:
            raise TraceFormatError(
                f"out-of-order submit time {job.submit_time:g} "
                f"(previous record submitted at {last_submit:g})",
                line=lineno, path=path)
        last_submit = max(last_submit, job.submit_time)
        saw_record = True
        jobs.append(job)
    obs.count("rush_swf_lines_total", lineno)
    obs.count("rush_swf_records_total", len(jobs))
    return SwfTrace(directives=directives, jobs=tuple(jobs), path=path)


def parse_swf_text(text: str, *, strict: bool = True,
                   path: Optional[str] = None) -> SwfTrace:
    """Parse SWF content held in a string."""
    return parse_swf_lines(text.splitlines(), strict=strict, path=path)


def parse_swf(path: Union[str, Path], *, strict: bool = True,
              trace_root: Union[str, Path, None] = None) -> SwfTrace:
    """Parse an SWF archive from disk.

    The path stored on the trace — and embedded in every
    :class:`TraceFormatError` message — is rendered *relative to the
    trace root* (the file's parent directory by default), never as the
    absolute path handed in.  Error strings and trace metadata flow
    into scenario JSON artifacts whose digests must be byte-identical
    across checkouts; an absolute path would leak machine-specific
    prefixes into them.
    """
    file_path = Path(path)
    root = Path(trace_root) if trace_root is not None else file_path.parent
    try:
        display = str(file_path.relative_to(root))
    except ValueError:
        display = file_path.name
    with file_path.open("r", encoding="utf-8", errors="strict") as handle:
        return parse_swf_lines(handle, strict=strict, path=display)


# -- mapping onto JobSpec ---------------------------------------------------


@dataclass(frozen=True)
class SwfMapConfig:
    """Deterministic rules mapping SWF jobs onto :class:`JobSpec`.

    ``slot_seconds`` is the simulator-slot width; ``max_tasks`` caps the
    per-job task fan-out (a 4096-processor job becomes ``max_tasks``
    proportionally longer tasks, preserving total processor-seconds).
    Sensitivity classes are assigned by benchmark-runtime terciles of the
    kept jobs — short jobs are ``critical``, the middle band
    ``sensitive``, the longest tercile ``insensitive`` — mirroring the
    paper's 20/60/20 spirit on empirical data.  See ``docs/WORKLOADS.md``
    for the full field-by-field table.
    """

    capacity: int = 16
    slot_seconds: float = 60.0
    max_tasks: int = 16
    budget_ratio: float = 2.0
    critical_beta: float = 0.5
    sensitive_beta: float = 0.02
    #: "tercile" (default) or "uniform" (everything time-sensitive).
    classify: str = "tercile"
    include_failed: bool = True
    max_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {self.capacity}")
        if not 0 < self.slot_seconds < math.inf:  # NaN fails too
            raise ConfigurationError(
                f"slot_seconds must be finite and positive, got {self.slot_seconds}")
        if self.max_tasks < 1:
            raise ConfigurationError(f"max_tasks must be >= 1, got {self.max_tasks}")
        if not 0 < self.budget_ratio < math.inf:
            raise ConfigurationError(
                f"budget_ratio must be finite and positive, got {self.budget_ratio}")
        if self.classify not in ("tercile", "uniform"):
            raise ConfigurationError(f"unknown classify rule {self.classify!r}")
        if self.max_jobs is not None and self.max_jobs < 1:
            raise ConfigurationError(f"max_jobs must be >= 1, got {self.max_jobs}")


_LPT_TEMPLATE = JobTemplate("swf-lpt-helper", tasks_per_gb=1.0,
                            mean_runtime=1.0, std_runtime=0.0)


def _task_durations(job: SwfJob, cfg: SwfMapConfig) -> Tuple[int, ...]:
    """Rigid SWF job -> task tuple preserving processor-seconds of work."""
    procs = max(job.procs, 1)
    n_tasks = min(procs, cfg.max_tasks)
    total_work_slots = (job.run_time * procs) / cfg.slot_seconds
    per_task = max(1, int(math.ceil(total_work_slots / n_tasks)))
    return tuple([per_task] * n_tasks)


def _template_label(job: SwfJob) -> str:
    """The job-class key empirical estimators fit per (see WORKLOADS.md)."""
    if job.executable > 0:
        return f"swf-app-{job.executable}"
    if job.queue > 0:
        return f"swf-queue-{job.queue}"
    return "swf-misc"


def _priority_for(job: SwfJob) -> int:
    """SWF carries no priority; derive one from the queue id (1..5)."""
    if job.queue > 0:
        return 1 + (job.queue - 1) % 5
    return 3


def _utility_for(sensitivity: str, budget: float, priority: int,
                 cfg: SwfMapConfig) -> UtilityFunction:
    if sensitivity == "insensitive":
        return ConstantUtility(priority=priority)
    beta = (cfg.critical_beta if sensitivity == "critical"
            else cfg.sensitive_beta)
    return SigmoidUtility(budget=budget, priority=priority, beta=beta)


def _skip_reason(job: SwfJob, cfg: SwfMapConfig) -> Optional[str]:
    if job.cancelled:
        return "cancelled"
    if job.failed and not cfg.include_failed:
        return "failed"
    if job.run_time <= 0:
        return "zero-runtime"
    if job.procs <= 0:
        return "zero-procs"
    return None


def swf_to_specs(trace: SwfTrace,
                 config: Optional[SwfMapConfig] = None) -> List[JobSpec]:
    """Map a parsed SWF trace onto simulator job specs.

    Cancelled jobs (status 5) and jobs with no recorded runtime or
    processor count never become specs — they are counted in the
    ``rush_swf_jobs_total{outcome=...}`` ingestion metric instead.
    Arrival slots are rebased so the first kept job arrives at slot 0.
    """
    cfg = config if config is not None else SwfMapConfig()
    kept: List[SwfJob] = []
    skipped: Dict[str, int] = {}
    for job in trace.jobs:
        reason = _skip_reason(job, cfg)
        if reason is None:
            kept.append(job)
        else:
            skipped[reason] = skipped.get(reason, 0) + 1
    if cfg.max_jobs is not None:
        kept = kept[:cfg.max_jobs]
    obs.count("rush_swf_jobs_total", len(kept), "ingested")
    for reason, n in skipped.items():
        obs.count("rush_swf_jobs_total", n, f"skipped-{reason}")
    if not kept:
        return []

    durations = [_task_durations(job, cfg) for job in kept]
    benchmarks = [
        float(_LPT_TEMPLATE.benchmark_runtime(list(tasks), cfg.capacity))
        for tasks in durations]
    sensitivities = _classify(kept, benchmarks, cfg)
    base_submit = kept[0].submit_time
    specs: List[JobSpec] = []
    for k, (job, tasks, benchmark) in enumerate(
            zip(kept, durations, benchmarks)):
        arrival = int((job.submit_time - base_submit) // cfg.slot_seconds)
        budget = cfg.budget_ratio * benchmark
        priority = _priority_for(job)
        sensitivity = sensitivities[k]
        # The user's own runtime estimate (requested_time) is the natural
        # per-task prior — the analogue of clients benchmarking offline.
        if job.requested_time > 0:
            prior = max(1.0, (job.requested_time * max(job.procs, 1))
                        / (len(tasks) * cfg.slot_seconds))
        else:
            prior = float(tasks[0])
        specs.append(JobSpec(
            job_id=f"swf-{job.job_number:06d}",
            arrival=arrival,
            task_durations=tasks,
            utility=_utility_for(sensitivity, budget, priority, cfg),
            priority=priority,
            budget=budget,
            benchmark_runtime=benchmark,
            sensitivity=sensitivity,
            template=_template_label(job),
            prior_runtime=prior,
            failure_prob=0.0))
    return specs


def _classify(jobs: Sequence[SwfJob], benchmarks: Sequence[float],
              cfg: SwfMapConfig) -> List[str]:
    """Assign sensitivity classes (see :class:`SwfMapConfig`)."""
    if cfg.classify == "uniform":
        return ["sensitive"] * len(jobs)
    ordered = sorted(benchmarks)
    lo = ordered[max(0, len(ordered) // 3 - 1)]
    hi = ordered[max(0, (2 * len(ordered)) // 3 - 1)]
    out: List[str] = []
    for benchmark in benchmarks:
        if benchmark <= lo:
            out.append("critical")
        elif benchmark <= hi:
            out.append("sensitive")
        else:
            out.append("insensitive")
    return out


def load_swf_workload(path: Union[str, Path], *,
                      config: Optional[SwfMapConfig] = None,
                      strict: bool = True,
                      trace_root: Union[str, Path, None] = None
                      ) -> List[JobSpec]:
    """One-call SWF ingestion: parse the archive and map it to specs."""
    return swf_to_specs(
        parse_swf(path, strict=strict, trace_root=trace_root),
        config=config)


def rebase_arrivals(specs: Sequence[JobSpec],
                    start_at: int = 0) -> List[JobSpec]:
    """Shift a spec list so its earliest arrival lands at ``start_at``.

    Used by scenario replay to turn a held-out trace *suffix* into a
    standalone workload (the simulator requires arrivals from slot 0).
    """
    if not specs:
        return []
    earliest = min(spec.arrival for spec in specs)
    offset = start_at - earliest
    if offset == 0:
        return list(specs)
    return [replace(spec, arrival=spec.arrival + offset) for spec in specs]
