"""Metrics collection for simulation runs.

Captures exactly the quantities the paper's evaluation reports:

* **latency** — "the difference between the actual job runtime and the
  time budget" (Figure 4); negative latency means the job beat its budget;
* **utility** — the value of the job's utility function at its achieved
  runtime (Figure 6);
* cluster utilization and scheduler-decision accounting, used by the
  overhead study (Figure 5).

Jobs still incomplete when a bounded simulation ends are recorded as
*censored*: their runtime is a lower bound (horizon minus arrival) and
their utility is evaluated at that bound, which — utilities being
non-increasing — upper-bounds the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Union

from repro import state as st
from repro.cluster.job import JobSpec, SimJob
from repro.faults.base import FaultEvent

__all__ = ["JobRecord", "RetiredJob", "SimulationResult",
           "lexicographic_compare", "scrub_nonfinite"]


def scrub_nonfinite(value: object) -> object:
    """Replace non-finite floats with ``None``, recursively.

    THE scrubber behind every strict-JSON dump and canonical digest
    (result/chaos/scenario artifacts, the service digests): unfinished
    jobs carry ``latency = nan``, and neither a file nor a digest may
    depend on how the host spells ``nan``.  Tuples come back as lists,
    exactly as ``json.dumps`` would write them.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: scrub_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [scrub_nonfinite(item) for item in value]
    return value


@dataclass(frozen=True)
class JobRecord:
    """Outcome of one job in one simulation run."""

    job_id: str
    template: str
    sensitivity: str
    priority: float
    arrival: int
    budget: float
    benchmark_runtime: float
    runtime: float
    latency: float
    utility_value: float
    completed: bool

    @classmethod
    def from_spec(cls, spec: JobSpec, completion: Optional[int],
                  horizon: int) -> "JobRecord":
        if completion is not None:
            runtime = float(completion - spec.arrival)
            completed = True
        else:
            runtime = float(max(horizon - spec.arrival, 0))
            completed = False
        return cls.of(spec, runtime, spec.utility.value(runtime), completed)

    @classmethod
    def of(cls, job: Union[JobSpec, "RetiredJob"], runtime: float,
           utility_value: float, completed: bool) -> "JobRecord":
        """The record of ``job`` (a spec, or the row it retired to: both
        carry the identity fields) at ``runtime``."""
        latency = runtime - job.budget if math.isfinite(job.budget) else math.nan
        return cls(job_id=job.job_id, template=job.template,
                   sensitivity=job.sensitivity, priority=job.priority,
                   arrival=job.arrival, budget=job.budget,
                   benchmark_runtime=job.benchmark_runtime,
                   runtime=runtime, latency=latency,
                   utility_value=utility_value, completed=completed)


_OPTIONAL_NUMBER = st.optional(st.number)
_OPTIONAL_INT = st.optional(st.integer)


class RetiredJob(NamedTuple):
    """What a completed or cancelled job still answers once the simulator
    has dropped its :class:`~repro.cluster.job.SimJob`.

    The identity fields of its :class:`JobRecord`, the completion slot and
    the utility it earned — both ``None`` for a cancelled job, which never
    has a record — and the task counts a job status reports.  A row is a
    few hundred bytes, however many tasks and attempts the job ran.
    """

    job_id: str
    template: str
    sensitivity: str
    priority: float
    arrival: int
    budget: float
    benchmark_runtime: float
    completion: Optional[int]
    utility_value: Optional[float]
    tasks: int
    pending_tasks: int
    completed_tasks: int
    failed_attempts: int

    @classmethod
    def of(cls, job: SimJob) -> "RetiredJob":
        """The row ``job`` retires to, as it stands."""
        spec = job.spec
        completion = job.completion_time
        value = (None if completion is None
                 else spec.utility.value(float(completion - spec.arrival)))
        return cls(spec.job_id, spec.template, spec.sensitivity,
                   spec.priority, spec.arrival, spec.budget,
                   spec.benchmark_runtime, completion, value,
                   len(spec.task_durations), job.pending_count,
                   job.completed_count, job.failed_count)

    def record(self) -> JobRecord:
        """The run's record of this completed job (a cancelled one has
        none)."""
        return JobRecord.of(self, float(self.completion - self.arrival),
                            self.utility_value, True)

    def to_row(self) -> List[Any]:
        """The row as JSON values (an unbounded budget and an unknown
        benchmark runtime are written ``None``, as a spec writes them)."""
        return [*self[:5],
                self.budget if math.isfinite(self.budget) else None,
                (None if math.isnan(self.benchmark_runtime)
                 else self.benchmark_runtime), *self[7:]]

    @classmethod
    def from_row(cls, row: Any) -> "RetiredJob":
        """The row :meth:`to_row` wrote; raises ``TypeError`` or
        ``ValueError`` on a malformed one."""
        (job_id, template, sensitivity, priority, arrival, budget,
         benchmark, completion, value, *counts) = st.row(
            row, st.name, st.name, st.name, st.number, st.integer,
            _OPTIONAL_NUMBER, _OPTIONAL_NUMBER, _OPTIONAL_INT,
            _OPTIONAL_NUMBER, st.integer, st.integer, st.integer,
            st.integer)
        return cls(job_id, template, sensitivity, priority, arrival,
                   math.inf if budget is None else budget,
                   math.nan if benchmark is None else benchmark,
                   completion, value, *counts)


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run.

    ``timed_out`` marks a run truncated by its slot budget (its censored
    records are lower bounds, not outcomes).  ``fault_events`` is the
    full injected-fault stream of the run, and ``fallbacks`` counts the
    scheduler's degradation-ladder rungs (e.g. ``{"last_good": 2}``) —
    both empty for a healthy run.

    ``metrics`` is the :mod:`repro.obs` registry snapshot taken when the
    run ended — ``None`` unless observability was enabled for the run
    (``repro.obs.enable(metrics=True)``), so default runs stay
    byte-identical to pre-observability ones.
    """

    scheduler_name: str
    capacity: int
    slots_simulated: int
    records: List[JobRecord] = field(default_factory=list)
    busy_container_slots: int = 0
    scheduling_decisions: int = 0
    task_failures: int = 0
    planner_seconds: float = 0.0
    timed_out: bool = False
    fault_events: List[FaultEvent] = field(default_factory=list)
    fallbacks: Dict[str, int] = field(default_factory=dict)
    metrics: Optional[Dict[str, object]] = None

    def metrics_snapshot(self) -> Dict[str, object]:
        """The run's metrics-registry snapshot ({} when obs was off)."""
        return dict(self.metrics) if self.metrics else {}

    # -- selection helpers -------------------------------------------------

    def by_sensitivity(self, *classes: str) -> List[JobRecord]:
        """Records restricted to the given sensitivity classes."""
        wanted = set(classes)
        return [r for r in self.records if r.sensitivity in wanted]

    def latencies(self, *classes: str) -> List[float]:
        """Latency values (runtime - budget), optionally filtered by class."""
        records = self.by_sensitivity(*classes) if classes else self.records
        return [r.latency for r in records if not math.isnan(r.latency)]

    def utilities(self, *classes: str) -> List[float]:
        """Achieved utility values, optionally filtered by class."""
        records = self.by_sensitivity(*classes) if classes else self.records
        return [r.utility_value for r in records]

    # -- aggregates ----------------------------------------------------------

    @property
    def completed_count(self) -> int:
        return sum(1 for r in self.records if r.completed)

    @property
    def zero_utility_fraction(self) -> float:
        """Fraction of jobs whose achieved utility is (numerically) zero."""
        if not self.records:
            return 0.0
        zeros = sum(1 for r in self.records if r.utility_value <= 1e-9)
        return zeros / len(self.records)

    @property
    def on_time_fraction(self) -> float:
        """Fraction of budgeted jobs finishing within their budget."""
        budgeted = [r for r in self.records if not math.isnan(r.latency)]
        if not budgeted:
            return 1.0
        return sum(1 for r in budgeted if r.latency <= 0 and r.completed) / len(budgeted)

    @property
    def utilization(self) -> float:
        """Busy container-slots over total container-slots."""
        denom = self.capacity * max(self.slots_simulated, 1)
        return self.busy_container_slots / denom

    def fault_count(self, kind: Optional[str] = None) -> int:
        """Injected-fault events, optionally restricted to one kind."""
        if kind is None:
            return len(self.fault_events)
        return sum(1 for e in self.fault_events if e.kind == kind)

    @property
    def fallback_count(self) -> int:
        """Total degradation-ladder fallbacks the scheduler recorded."""
        return sum(self.fallbacks.values())

    def total_utility(self) -> float:
        return sum(r.utility_value for r in self.records)

    # -- export -------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible dump of the run (for external analysis)."""
        import dataclasses

        out = {
            "scheduler": self.scheduler_name,
            "capacity": self.capacity,
            "slots_simulated": self.slots_simulated,
            "busy_container_slots": self.busy_container_slots,
            "scheduling_decisions": self.scheduling_decisions,
            "task_failures": self.task_failures,
            "planner_seconds": self.planner_seconds,
            "timed_out": self.timed_out,
            "fault_events": [e.to_dict() for e in self.fault_events],
            "fallbacks": dict(self.fallbacks),
            "records": [dataclasses.asdict(r) for r in self.records],
        }
        if self.metrics is not None:
            out["metrics"] = dict(self.metrics)
        return out

    def save_json(self, path) -> None:
        """Write :meth:`to_dict` to ``path`` (NaN-safe JSON)."""
        import json
        from pathlib import Path

        Path(path).write_text(
            json.dumps(scrub_nonfinite(self.to_dict()), indent=2,
                       sort_keys=True),
            encoding="utf-8")

    def save_csv(self, path) -> None:
        """Write the per-job records as CSV."""
        import csv
        import dataclasses

        fields = [f.name for f in dataclasses.fields(JobRecord)]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=fields)
            writer.writeheader()
            for record in self.records:
                writer.writerow(dataclasses.asdict(record))

    def min_utility(self) -> float:
        return min((r.utility_value for r in self.records), default=0.0)

    def sorted_utilities(self) -> List[float]:
        """The lexicographic comparison vector (non-decreasing utilities)."""
        return sorted(r.utility_value for r in self.records)


def lexicographic_compare(a: Sequence[float], b: Sequence[float]) -> int:
    """Compare two utility vectors under the paper's lexicographic order.

    Both vectors are sorted non-decreasingly first.  Returns 1 if ``a`` is
    lexicographically greater, -1 if smaller, 0 if equal — the order used
    by the RS objective in Section II.
    """
    sa, sb = sorted(a), sorted(b)
    for x, y in zip(sa, sb):
        if x > y + 1e-12:
            return 1
        if x < y - 1e-12:
            return -1
    if len(sa) != len(sb):  # compare padded with -inf: shorter is greater earlier
        return 1 if len(sa) < len(sb) else -1
    return 0
