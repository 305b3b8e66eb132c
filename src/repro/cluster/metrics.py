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
from typing import Dict, List, Optional, Sequence

from repro.cluster.job import JobSpec
from repro.faults.base import FaultEvent

__all__ = ["JobRecord", "SimulationResult", "lexicographic_compare",
           "scrub_nonfinite"]


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
        latency = runtime - spec.budget if math.isfinite(spec.budget) else math.nan
        return cls(job_id=spec.job_id, template=spec.template,
                   sensitivity=spec.sensitivity, priority=spec.priority,
                   arrival=spec.arrival, budget=spec.budget,
                   benchmark_runtime=spec.benchmark_runtime,
                   runtime=runtime, latency=latency,
                   utility_value=spec.utility.value(runtime),
                   completed=completed)


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
