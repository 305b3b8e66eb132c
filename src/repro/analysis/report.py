"""Plain-text rendering of tables and figure-shaped summaries.

The benchmark harness regenerates each of the paper's figures as text:
aligned tables for the numbers and quick ASCII sketches for the boxplots
and CDFs, so results are inspectable straight from the pytest output or
the files the benchmarks write.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from repro.analysis.stats import BoxplotStats, ecdf_at

__all__ = ["format_table", "format_boxplots", "format_cdf_table", "format_number"]


def format_number(value: float, digits: int = 2) -> str:
    """Human-friendly fixed-point formatting with NaN/inf handling."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, float):
        return f"{value:.{digits}f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 digits: int = 2) -> str:
    """Render an aligned text table with a header rule."""
    rendered = [[h for h in headers]]
    for row in rows:
        rendered.append([
            format_number(cell, digits) if isinstance(cell, float) else str(cell)
            for cell in row
        ])
    widths = [max(len(r[c]) for r in rendered) for c in range(len(headers))]
    lines: List[str] = []
    for idx, row in enumerate(rendered):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_boxplots(stats: Mapping[str, BoxplotStats], digits: int = 1) -> str:
    """Tabulate boxplot summaries, one labelled row per series (Figure 4)."""
    headers = ["series", "n", "whisk-lo", "q1", "median", "q3", "whisk-hi",
               "mean", "#outliers"]
    rows = []
    for label, s in stats.items():
        rows.append([label, s.n, s.whisker_low, s.q1, s.median, s.q3,
                     s.whisker_high, s.mean, len(s.outliers)])
    return format_table(headers, rows, digits=digits)


def format_cdf_table(series: Mapping[str, Sequence[float]],
                     grid: Sequence[float], digits: int = 2) -> str:
    """Tabulate empirical CDFs of several series on a common grid (Figure 6).

    Each row is a grid point ``x``; each column the fraction of that
    series' values <= ``x``.
    """
    labels = list(series)
    headers = ["x"] + labels
    rows: List[List[object]] = []
    for x in grid:
        rows.append([float(x)] + [ecdf_at(series[label], x) for label in labels])
    return format_table(headers, rows, digits=digits)
