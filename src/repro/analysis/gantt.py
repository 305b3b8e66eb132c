"""ASCII Gantt rendering of container plans.

A :class:`~repro.core.mapping.ContainerPlan` is a set of per-queue task
segments; seeing it laid out on a time axis is the quickest way to sanity
check a schedule (and the closest text analogue to the allocation charts
cluster UIs draw).  Each queue becomes one row; each job is assigned a
letter; ``.`` marks idle space before a queue's horizon ends.
"""

from __future__ import annotations

import string
from typing import TYPE_CHECKING, Dict, List

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.mapping import ContainerPlan

__all__ = ["render_gantt", "job_legend"]

#: Symbols assigned to jobs, in first-seen order; cycles if exhausted.
_SYMBOLS = string.ascii_uppercase + string.ascii_lowercase + string.digits


def job_legend(plan: "ContainerPlan") -> Dict[str, str]:
    """Stable job-id -> symbol assignment for a plan."""
    legend: Dict[str, str] = {}
    for segment in sorted(plan.segments, key=lambda s: (s.start, s.queue)):
        if segment.job_id not in legend:
            legend[segment.job_id] = _SYMBOLS[len(legend) % len(_SYMBOLS)]
    return legend


def render_gantt(plan: "ContainerPlan", width: int = 72) -> str:
    """Render the plan as one text row per container queue.

    ``width`` is the number of character cells the makespan is scaled
    into; each cell shows the job occupying that queue at the cell's
    midpoint time (``.`` when idle).
    """
    if width < 10:
        raise ConfigurationError(f"width must be >= 10, got {width}")
    makespan = plan.makespan
    if makespan <= 0 or not plan.segments:
        return "(empty plan)"
    legend = job_legend(plan)
    scale = makespan / width

    lines: List[str] = []
    header = f"time 0 .. {makespan:.1f} slots, one row per container queue"
    lines.append(header)
    for queue in range(plan.capacity):
        segments = [s for s in plan.segments if s.queue == queue]
        segments.sort(key=lambda s: s.start)
        cells = []
        for cell in range(width):
            midpoint = (cell + 0.5) * scale
            symbol = "."
            for segment in segments:
                if segment.start <= midpoint < segment.end:
                    symbol = legend[segment.job_id]
                    break
            cells.append(symbol)
        lines.append(f"q{queue:02d} |{''.join(cells)}|")
    lines.append("")
    lines.append("legend: " + "  ".join(
        f"{symbol}={job_id}" for job_id, symbol in legend.items()))
    return "\n".join(lines)
