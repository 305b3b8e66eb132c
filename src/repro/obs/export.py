"""Exporters: JSONL trace files and Prometheus-style metrics text.

The JSONL format is one span per line, in open (``seq``) order, with
sorted keys — so byte-level diffs between two runs are meaningful and
the golden files under ``tests/golden/`` stay stable.  The Prometheus
text comes straight from :meth:`MetricsRegistry.render_prometheus`; this
module only adds the file plumbing so callers (the CLI, tests) have one
place to write artifacts from.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Union

from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.trace import NullTracer, SpanTracer

__all__ = ["trace_jsonl_lines", "write_trace_jsonl", "read_trace_jsonl",
           "write_metrics_text"]

_AnyTracer = Union[SpanTracer, NullTracer]
_AnyMetrics = Union[MetricsRegistry, NullMetrics]


def trace_jsonl_lines(tracer: _AnyTracer) -> List[str]:
    """One JSON document per span, seq-ordered, keys sorted."""
    return [json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in tracer.to_dicts()]


def write_trace_jsonl(tracer: _AnyTracer, path: str) -> int:
    """Write the trace; returns the number of spans written."""
    lines = trace_jsonl_lines(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line + "\n")
    return len(lines)


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Parse a trace file back into span records (blank lines skipped)."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def write_metrics_text(registry: _AnyMetrics, path: str) -> None:
    """Write the Prometheus text exposition to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(registry.render_prometheus())
