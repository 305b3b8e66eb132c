"""Chaos sweeps: fault-intensity degradation curves.

``rush chaos`` replays one workload under one policy while dialling a
:class:`~repro.faults.plan.FaultPlan` through a ladder of intensities.
Because the plan's decision streams are monotone-coupled (see
``repro.faults.plan``), every sweep point replays the *same* fault draw
sequence with a scaled firing threshold — the curve measures the policy's
response to progressively harsher conditions, not run-to-run noise.

Each sweep point is one bounded simulation (``max_slots`` caps it); jobs
still incomplete at the cap are censored and score their capped utility,
which is exactly the degradation signal high intensities should produce.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.cluster.job import JobSpec
from repro.cluster.metrics import SimulationResult, scrub_nonfinite
from repro.cluster.simulator import run_simulation
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.schedulers.base import Scheduler

__all__ = ["ChaosPoint", "ChaosReport", "chaos_sweep"]


@dataclass(frozen=True)
class ChaosPoint:
    """One intensity's outcome in a chaos sweep."""

    intensity: float
    total_utility: float
    min_utility: float
    completed: int
    jobs: int
    on_time_fraction: float
    zero_utility_fraction: float
    fault_events: int
    fault_counts: Dict[str, int]
    fallbacks: Dict[str, int]
    task_failures: int
    timed_out: bool
    slots_simulated: int

    @classmethod
    def from_result(cls, intensity: float,
                    result: SimulationResult) -> "ChaosPoint":
        counts: Dict[str, int] = {}
        for event in result.fault_events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return cls(
            intensity=intensity,
            total_utility=result.total_utility(),
            min_utility=result.min_utility(),
            completed=result.completed_count,
            jobs=len(result.records),
            on_time_fraction=result.on_time_fraction,
            zero_utility_fraction=result.zero_utility_fraction,
            fault_events=len(result.fault_events),
            fault_counts=counts,
            fallbacks=dict(result.fallbacks),
            task_failures=result.task_failures,
            timed_out=result.timed_out,
            slots_simulated=result.slots_simulated,
        )

    def to_dict(self) -> dict:
        return {
            "intensity": self.intensity,
            "total_utility": self.total_utility,
            "min_utility": self.min_utility,
            "completed": self.completed,
            "jobs": self.jobs,
            "on_time_fraction": self.on_time_fraction,
            "zero_utility_fraction": self.zero_utility_fraction,
            "fault_events": self.fault_events,
            "fault_counts": dict(self.fault_counts),
            "fallbacks": dict(self.fallbacks),
            "task_failures": self.task_failures,
            "timed_out": self.timed_out,
            "slots_simulated": self.slots_simulated,
        }


@dataclass
class ChaosReport:
    """A full sweep: the degradation curve plus its provenance."""

    scheduler_name: str
    capacity: int
    max_slots: int
    fault_spec: dict
    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def baseline(self) -> Optional[ChaosPoint]:
        """The lowest-intensity point (the curve's reference)."""
        if not self.points:
            return None
        return min(self.points, key=lambda p: p.intensity)

    def utility_retention(self) -> Dict[float, float]:
        """Per-intensity total utility as a fraction of the baseline's."""
        base = self.baseline
        if base is None or base.total_utility <= 0.0:
            return {p.intensity: math.nan for p in self.points}
        return {p.intensity: p.total_utility / base.total_utility
                for p in self.points}

    def to_dict(self) -> dict:
        return {
            "scheduler": self.scheduler_name,
            "capacity": self.capacity,
            "max_slots": self.max_slots,
            "fault_spec": self.fault_spec,
            "points": [p.to_dict() for p in self.points],
        }

    def save_json(self, path: Union[str, Path]) -> None:
        Path(path).write_text(
            json.dumps(scrub_nonfinite(self.to_dict()), indent=2,
                       sort_keys=True),
            encoding="utf-8")

    def summary_table(self) -> str:
        retention = self.utility_retention()
        rows = []
        for p in sorted(self.points, key=lambda q: q.intensity):
            kept = retention.get(p.intensity, math.nan)
            rows.append([
                p.intensity, p.fault_events,
                f"{p.completed}/{p.jobs}",
                p.total_utility,
                "-" if math.isnan(kept) else f"{kept:.0%}",
                p.on_time_fraction,
                sum(p.fallbacks.values()),
                "yes" if p.timed_out else "no",
            ])
        table = format_table(
            ["intensity", "faults", "completed", "utility", "kept",
             "on-time", "fallbacks", "censored"], rows, digits=2)
        return (f"chaos sweep — policy={self.scheduler_name}, "
                f"capacity={self.capacity}, "
                f"max {self.max_slots} slots/point\n\n{table}")


def chaos_sweep(specs: Sequence[JobSpec], capacity: int,
                scheduler_factory: Callable[[], Scheduler],
                plan: FaultPlan,
                intensities: Sequence[float],
                *, seed: int = 0,
                max_slots: int = 20_000) -> ChaosReport:
    """Replay one workload across a ladder of fault intensities.

    ``scheduler_factory`` builds a *fresh* scheduler per point (scheduler
    state — estimator posteriors, degradation counts — must not leak
    between points).  ``plan`` is the template; each point runs its
    ``scaled(intensity)`` copy so all points share the plan's seed and
    draw sequence.
    """
    if not intensities:
        raise ConfigurationError("chaos sweep needs at least one intensity")
    for intensity in intensities:
        if intensity < 0.0:
            raise ConfigurationError(
                f"intensity must be >= 0, got {intensity}")
    if max_slots < 1:
        raise ConfigurationError(f"max_slots must be >= 1, got {max_slots}")

    first = scheduler_factory()
    report = ChaosReport(scheduler_name=first.name, capacity=capacity,
                         max_slots=max_slots, fault_spec=plan.to_spec())
    schedulers = [first] + [scheduler_factory()
                            for _ in range(len(intensities) - 1)]
    for intensity, scheduler in zip(intensities, schedulers):
        result = run_simulation(
            specs, capacity, scheduler, max_slots=max_slots, seed=seed,
            faults=plan.scaled(intensity))
        report.points.append(ChaosPoint.from_result(intensity, result))
    return report
