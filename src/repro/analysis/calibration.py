"""Calibration of θ-percentile completion-time predictions.

RUSH promises each job completion by its planned slot with probability at
least ``theta`` — under *every* distribution in the KL ball, not just the
estimated one.  The :class:`~repro.obs.ledger.CompletionLedger` records
those promises and the realized completions; this module scores them:

* **coverage** — the fraction of realized jobs that finished at or before
  the predicted slot.  A calibrated θ=0.9 planner should see coverage of
  at least ~0.9 (robustness typically pushes it higher: the worst-case
  quantile over-provisions against distributions that did not occur);
  coverage well *below* θ means the estimator or the δ margin is lying.
* **error** — realized minus predicted slots (negative = finished early).
  Large negative means over-conservative plans; positive means broken
  promises.

Both are reported for the *first* prediction (made from the prior, before
any task samples) and the *last* (the freshest replan before completion);
the gap between them is the value of online estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.analysis.report import format_table
from repro.obs.ledger import CompletionLedger, LedgerEntry, NullLedger

__all__ = ["CalibrationRow", "CalibrationReport", "calibration_report"]


@dataclass(frozen=True)
class CalibrationRow:
    """One job's scored promise; errors are None for unrealized jobs."""

    job_id: str
    theta: float
    first_predicted: float
    last_predicted: float
    actual: Optional[int]
    predictions: int

    @property
    def realized(self) -> bool:
        return self.actual is not None

    @property
    def last_error(self) -> Optional[float]:
        """Realized minus last-predicted slots (negative = early)."""
        if self.actual is None:
            return None
        return self.actual - self.last_predicted

    @property
    def covered_first(self) -> Optional[bool]:
        if self.actual is None:
            return None
        return self.actual <= self.first_predicted + 1e-9

    @property
    def covered_last(self) -> Optional[bool]:
        if self.actual is None:
            return None
        return self.actual <= self.last_predicted + 1e-9


@dataclass(frozen=True)
class CalibrationReport:
    """Scored ledger: per-job rows plus the aggregate coverage numbers."""

    theta: float
    rows: List[CalibrationRow]

    @property
    def realized_rows(self) -> List[CalibrationRow]:
        return [r for r in self.rows if r.realized]

    @property
    def coverage_first(self) -> float:
        """Fraction of realized jobs covered by their first prediction."""
        return self._coverage("covered_first")

    @property
    def coverage_last(self) -> float:
        """Fraction of realized jobs covered by their last prediction."""
        return self._coverage("covered_last")

    def _coverage(self, attr: str) -> float:
        realized = self.realized_rows
        if not realized:
            return 1.0
        return (sum(1 for r in realized if getattr(r, attr))
                / len(realized))

    @property
    def mean_error_last(self) -> float:
        """Mean realized-minus-last-predicted slots over realized jobs."""
        errors = [r.last_error for r in self.realized_rows
                  if r.last_error is not None]
        return sum(errors) / len(errors) if errors else 0.0

    @property
    def mean_abs_error_last(self) -> float:
        errors = [abs(r.last_error) for r in self.realized_rows
                  if r.last_error is not None]
        return sum(errors) / len(errors) if errors else 0.0

    @property
    def calibrated(self) -> bool:
        """Whether last-prediction coverage meets the θ promise."""
        return self.coverage_last >= self.theta - 1e-9

    def summary_table(self) -> str:
        """Per-job text table plus the aggregate footer line."""
        rows: List[Sequence[object]] = []
        for r in self.rows:
            rows.append([
                r.job_id,
                float(r.first_predicted),
                float(r.last_predicted),
                r.actual if r.actual is not None else "-",
                (float(r.last_error)
                 if r.last_error is not None else "-"),
                ("yes" if r.covered_last else "NO")
                if r.realized else "censored",
            ])
        table = format_table(
            ["job", "first pred", "last pred", "actual", "error",
             "covered"], rows, digits=1)
        footer = (
            f"theta={self.theta:.2f}  realized={len(self.realized_rows)}"
            f"/{len(self.rows)}  coverage first={self.coverage_first:.2f}"
            f" last={self.coverage_last:.2f}  mean error"
            f"={self.mean_error_last:+.1f} slots  "
            f"{'CALIBRATED' if self.calibrated else 'MISCALIBRATED'}")
        return table + "\n\n" + footer

    def to_dict(self) -> Dict[str, Any]:
        return {
            "theta": self.theta,
            "coverage_first": self.coverage_first,
            "coverage_last": self.coverage_last,
            "mean_error_last": self.mean_error_last,
            "mean_abs_error_last": self.mean_abs_error_last,
            "calibrated": self.calibrated,
            "jobs": [{
                "job_id": r.job_id,
                "first_predicted": r.first_predicted,
                "last_predicted": r.last_predicted,
                "actual": r.actual,
                "predictions": r.predictions,
            } for r in self.rows],
        }


def calibration_report(
        ledger: Union[CompletionLedger, NullLedger, Sequence[LedgerEntry]],
) -> CalibrationReport:
    """Score a completion ledger (or a plain entry list) into a report.

    ``theta`` is taken from the entries (they all share the scheduler's
    percentile in a normal run; the max is used if they differ, the
    conservative reading).
    """
    entries = (list(ledger) if isinstance(ledger, (list, tuple))
               else ledger.entries())
    theta = max((e.theta for e in entries), default=math.nan)
    if math.isnan(theta):
        theta = 0.0
    rows = [CalibrationRow(
        job_id=e.job_id, theta=e.theta,
        first_predicted=e.first_predicted, last_predicted=e.last_predicted,
        actual=e.actual, predictions=e.predictions) for e in entries]
    return CalibrationReport(theta=float(theta), rows=rows)
