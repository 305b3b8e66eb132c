"""Statistics helpers backing the paper's figures.

Figure 4 is a boxplot (median, quartiles, whiskers, outliers) of job
latencies; Figure 6 plots empirical CDFs of job utilities.  This module
computes those summaries with the standard Tukey conventions so the text
renderings in :mod:`repro.analysis.report` — and any assertions the
benchmarks make about them — are unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BoxplotStats", "boxplot_stats", "ecdf", "ecdf_at", "Summary", "summarize"]


@dataclass(frozen=True)
class BoxplotStats:
    """Tukey boxplot summary of one sample."""

    n: int
    mean: float
    median: float
    q1: float
    q3: float
    whisker_low: float
    whisker_high: float
    outliers: Tuple[float, ...]

    @property
    def iqr(self) -> float:
        return self.q3 - self.q1


def boxplot_stats(values: Sequence[float]) -> BoxplotStats:
    """Compute Tukey boxplot statistics.

    Whiskers extend to the most extreme data point within
    ``1.5 * IQR`` of the quartiles; anything beyond is an outlier.
    """
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        raise ConfigurationError("boxplot_stats needs at least one value")
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    iqr = q3 - q1
    lo_fence = q1 - 1.5 * iqr
    hi_fence = q3 + 1.5 * iqr
    inside = arr[(arr >= lo_fence) & (arr <= hi_fence)]
    outliers = tuple(sorted(float(v) for v in arr[(arr < lo_fence) | (arr > hi_fence)]))
    # When no data sits between a quartile and its fence, the whisker
    # collapses onto the quartile (matplotlib's convention).
    whisker_low = min(float(inside.min()), float(q1)) if inside.size else float(q1)
    whisker_high = max(float(inside.max()), float(q3)) if inside.size else float(q3)
    return BoxplotStats(n=int(arr.size), mean=float(arr.mean()), median=float(med),
                        q1=float(q1), q3=float(q3),
                        whisker_low=whisker_low,
                        whisker_high=whisker_high,
                        outliers=outliers)


def ecdf(values: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF as ``(sorted values, cumulative fractions)``."""
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ConfigurationError("ecdf needs at least one value")
    fractions = np.arange(1, arr.size + 1) / arr.size
    return arr, fractions


def ecdf_at(values: Sequence[float], x: float) -> float:
    """Fraction of ``values`` that are <= ``x``."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigurationError("ecdf_at needs at least one value")
    return float(np.mean(arr <= x))


@dataclass(frozen=True)
class Summary:
    """Compact numeric summary of one sample."""

    n: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    maximum: float


def summarize(values: Sequence[float]) -> Summary:
    """Mean/std and the five-number summary of a sample."""
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if arr.size == 0:
        raise ConfigurationError("summarize needs at least one value")
    p25, med, p75 = np.percentile(arr, [25, 50, 75])
    return Summary(n=int(arr.size), mean=float(arr.mean()),
                   std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
                   minimum=float(arr.min()), p25=float(p25), median=float(med),
                   p75=float(p75), maximum=float(arr.max()))
