"""``repro.obs`` — deterministic observability for the RUSH pipeline.

Three instruments, all slot-indexed and wall-clock-free (RL009):

* :class:`~repro.obs.trace.SpanTracer` — nested solver spans ordered by
  a monotonic sequence counter (WCDE bisection, onion layers, mapping,
  degradation fallbacks, cache hits/misses);
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  fixed-bucket histograms, exported as Prometheus text or a JSON
  snapshot;
* :class:`~repro.obs.ledger.CompletionLedger` — θ-percentile completion
  promises vs realized completions, feeding
  :func:`repro.analysis.calibration.calibration_report`.

Instrumented code pulls the process-wide instruments through
:func:`get_tracer` / :func:`get_metrics` / :func:`get_ledger`, and emits
metrics through :func:`count` / :func:`set_gauge` / :func:`observe` with
the name of a :data:`~repro.obs.metrics.CATALOG` row and a value.  By
default all three are null objects, so the instrumentation costs one
attribute call and the PR-1 planner benchmark gate is unaffected; a run
opts in with :func:`enable` (or :func:`install` for custom instances)
and returns to the no-op state with :func:`reset`::

    from repro import obs

    handle = obs.enable(trace=True, metrics=True, ledger=True)
    result = run_simulation(...)
    obs.export.write_trace_jsonl(handle.tracer, "out.jsonl")
    obs.reset()

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric catalog.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from repro.obs import export
from repro.obs.ledger import (NULL_LEDGER, CompletionLedger, LedgerEntry,
                              NullLedger)
from repro.obs.metrics import (CATALOG, NULL_METRICS, Counter, Gauge,
                               Histogram, MetricsRegistry, NullMetrics,
                               catalogued)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, SpanTracer

__all__ = [
    "Span", "SpanTracer", "NullTracer", "NULL_TRACER",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "NullMetrics",
    "NULL_METRICS", "CATALOG", "count", "set_gauge", "observe",
    "LedgerEntry", "CompletionLedger", "NullLedger", "NULL_LEDGER",
    "ObsHandle", "get_tracer", "get_metrics", "get_ledger",
    "enable", "install", "reset", "export",
]

AnyTracer = Union[SpanTracer, NullTracer]
AnyMetrics = Union[MetricsRegistry, NullMetrics]
AnyLedger = Union[CompletionLedger, NullLedger]


class ObsHandle(NamedTuple):
    """The three instruments active after an :func:`enable`/:func:`install`."""

    tracer: AnyTracer
    metrics: AnyMetrics
    ledger: AnyLedger


_tracer: AnyTracer = NULL_TRACER
_metrics: AnyMetrics = NULL_METRICS
_ledger: AnyLedger = NULL_LEDGER


def get_tracer() -> AnyTracer:
    """The process-wide tracer (the null tracer unless enabled)."""
    return _tracer


def get_metrics() -> AnyMetrics:
    """The process-wide metrics registry (null unless enabled)."""
    return _metrics


def get_ledger() -> AnyLedger:
    """The process-wide completion ledger (null unless enabled)."""
    return _ledger


def count(name: str, amount: float = 1.0, *labels: str) -> None:
    """Add ``amount`` to the catalogued counter ``name`` (no-op when off)."""
    if isinstance(_metrics, MetricsRegistry):
        catalogued(_metrics, name, Counter)._inc(labels, amount)


def set_gauge(name: str, value: float, *labels: str) -> None:
    """Set the catalogued gauge ``name`` (no-op when off)."""
    if isinstance(_metrics, MetricsRegistry):
        catalogued(_metrics, name, Gauge)._set(labels, value)


def observe(name: str, value: float, *labels: str) -> None:
    """Feed ``value`` to the catalogued histogram ``name`` (no-op when off)."""
    if isinstance(_metrics, MetricsRegistry):
        catalogued(_metrics, name, Histogram)._observe(labels, value)


def install(tracer: Optional[AnyTracer] = None,
            metrics: Optional[AnyMetrics] = None,
            ledger: Optional[AnyLedger] = None) -> ObsHandle:
    """Install specific instrument instances; ``None`` leaves one as-is."""
    global _tracer, _metrics, _ledger
    if tracer is not None:
        _tracer = tracer
    if metrics is not None:
        _metrics = metrics
    if ledger is not None:
        _ledger = ledger
    return ObsHandle(_tracer, _metrics, _ledger)


def enable(trace: bool = True, metrics: bool = True,
           ledger: bool = True) -> ObsHandle:
    """Switch on fresh instruments for the selected subsystems.

    Subsystems not selected are reset to their null objects, so
    ``enable(metrics=True, trace=False, ledger=False)`` measures metrics
    overhead in isolation.
    """
    global _tracer, _metrics, _ledger
    _tracer = SpanTracer() if trace else NULL_TRACER
    _metrics = MetricsRegistry() if metrics else NULL_METRICS
    _ledger = CompletionLedger() if ledger else NULL_LEDGER
    return ObsHandle(_tracer, _metrics, _ledger)


def reset() -> None:
    """Return to the default no-op state (used by tests and the CLI)."""
    global _tracer, _metrics, _ledger
    _tracer = NULL_TRACER
    _metrics = NULL_METRICS
    _ledger = NULL_LEDGER
