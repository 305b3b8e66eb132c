"""Counters, gauges, and fixed-bucket histograms for the RUSH pipeline.

A deliberately small, dependency-free metrics substrate: metrics are
registered lazily (get-or-create by name), labels are positional tuples
declared up front, and a :meth:`MetricsRegistry.snapshot` is a plain
sorted dict — byte-identical across two same-seed runs, which is what
the golden-file tests compare.

Histograms use *fixed* bucket upper bounds chosen at registration; there
is no adaptive resizing, so bucket counts are reproducible and the sum
of bucket counts always equals the observation count (a tested
invariant).  Rendering follows the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` / ``name{label="v"} value``) closely enough to
scrape, without depending on ``prometheus_client``.

Like the tracer, this module never reads a clock (lint rule RL009):
rates and latencies are expressed in solver iterations and simulation
slots, not seconds.

:data:`CATALOG` is the one declaration of every ``rush_*`` series the
product emits: a series exists because its row names who reads it.
Product code emits through ``repro.obs.count`` / ``set_gauge`` /
``observe`` with a name and a value; :class:`MetricsRegistry` itself
stays a generic get-or-create store.
"""

from __future__ import annotations

from typing import (Any, Dict, List, NamedTuple, Optional, Sequence, Tuple,
                    Type, TypeVar)

from repro.errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "NullMetrics", "NULL_METRICS", "Series", "CATALOG", "catalogued"]

_LabelKey = Tuple[str, ...]
_M = TypeVar("_M", bound="_Metric")


def _escape(text: str, quote: bool = False) -> str:
    """Text-format escaping: HELP text, and label values (``quote``)."""
    text = text.replace("\\", "\\\\").replace("\n", "\\n")
    return text.replace('"', '\\"') if quote else text


def _format_value(value: float) -> str:
    """Prometheus-style number: integral floats print without ``.0``."""
    as_int = int(value)
    if float(as_int) == value:  # rushlint: disable=RL003 (exact integrality test on our own accumulator)
        return str(as_int)
    return repr(value)


class _Metric:
    """Shared bookkeeping: name, label schema, per-labelset storage."""

    kind: str = ""

    def __init__(self, name: str, help: str = "", unit: str = "",
                 label_names: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self.label_names = tuple(label_names)

    def _key(self, label_values: Tuple[str, ...]) -> _LabelKey:
        if len(label_values) != len(self.label_names):
            raise ConfigurationError(
                f"metric {self.name} expects {len(self.label_names)} "
                f"label value(s) {self.label_names}, got {label_values!r}")
        return tuple(str(v) for v in label_values)

    def _label_suffix(self, key: _LabelKey, *extra: str) -> str:
        """``{name="value", ...}`` with ``extra`` pre-rendered pairs last."""
        pairs = [f'{name}="{_escape(value, quote=True)}"'
                 for name, value in zip(self.label_names, key)]
        pairs.extend(extra)
        return "{" + ", ".join(pairs) + "}" if pairs else ""


class Counter(_Metric):
    """Monotonically increasing count (events, solves, cache hits)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, unit, label_names)
        self._values: Dict[_LabelKey, float] = {}

    def labels(self, *label_values: str) -> "_BoundCounter":
        return _BoundCounter(self, self._key(tuple(label_values)))

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabeled series (labelled metrics use .labels())."""
        self._inc((), amount)

    def _inc(self, key: _LabelKey, amount: float) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (amount={amount})")
        key = self._key(key) if key else self._key(())
        self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, *label_values: str) -> float:
        return self._values.get(self._key(tuple(label_values)), 0.0)

    def snapshot_values(self) -> List[List[Any]]:
        return [[list(k), v] for k, v in sorted(self._values.items())]

    def render(self) -> List[str]:
        return [f"{self.name}{self._label_suffix(k)} {_format_value(v)}"
                for k, v in sorted(self._values.items())]


class _BoundCounter:
    __slots__ = ("_metric", "_label_key")

    def __init__(self, metric: Counter, label_key: _LabelKey) -> None:
        self._metric = metric
        self._label_key = label_key

    def inc(self, amount: float = 1.0) -> None:
        self._metric._inc(self._label_key, amount)


class Gauge(_Metric):
    """A value that goes up and down (queue depth, busy containers)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "", unit: str = "",
                 label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, unit, label_names)
        self._values: Dict[_LabelKey, float] = {}

    def labels(self, *label_values: str) -> "_BoundGauge":
        return _BoundGauge(self, self._key(tuple(label_values)))

    def set(self, value: float) -> None:
        self._set((), value)

    def _set(self, key: _LabelKey, value: float) -> None:
        self._values[self._key(key) if key else self._key(())] = float(value)

    def value(self, *label_values: str) -> float:
        return self._values.get(self._key(tuple(label_values)), 0.0)

    def snapshot_values(self) -> List[List[Any]]:
        return [[list(k), v] for k, v in sorted(self._values.items())]

    def render(self) -> List[str]:
        return [f"{self.name}{self._label_suffix(k)} {_format_value(v)}"
                for k, v in sorted(self._values.items())]


class _BoundGauge:
    __slots__ = ("_metric", "_label_key")

    def __init__(self, metric: Gauge, label_key: _LabelKey) -> None:
        self._metric = metric
        self._label_key = label_key

    def set(self, value: float) -> None:
        self._metric._set(self._label_key, value)


class _HistogramState:
    __slots__ = ("bucket_counts", "total", "count")

    def __init__(self, n_buckets: int) -> None:
        # one slot per finite bound plus the implicit +Inf overflow
        self.bucket_counts = [0] * (n_buckets + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float, bounds: Tuple[float, ...]) -> None:
        idx = len(bounds)
        for i, bound in enumerate(bounds):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        self.total += float(value)
        self.count += 1


class Histogram(_Metric):
    """Fixed-bucket histogram; bounds are upper-inclusive, +Inf implicit."""

    kind = "histogram"

    def __init__(self, name: str, buckets: Sequence[float], help: str = "",
                 unit: str = "", label_names: Sequence[str] = ()) -> None:
        super().__init__(name, help, unit, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ConfigurationError(
                f"histogram {self.name} needs strictly increasing, "
                f"non-empty buckets, got {buckets!r}")
        self.buckets = bounds
        self._states: Dict[_LabelKey, _HistogramState] = {}

    def labels(self, *label_values: str) -> "_BoundHistogram":
        return _BoundHistogram(self, self._key(tuple(label_values)))

    def observe(self, value: float) -> None:
        self._observe((), value)

    def _observe(self, key: _LabelKey, value: float) -> None:
        full_key = self._key(key) if key else self._key(())
        state = self._states.get(full_key)
        if state is None:
            state = self._states[full_key] = _HistogramState(len(self.buckets))
        state.observe(float(value), self.buckets)

    def state(self, *label_values: str) -> Optional[_HistogramState]:
        return self._states.get(self._key(tuple(label_values)))

    def snapshot_values(self) -> List[List[Any]]:
        out: List[List[Any]] = []
        for key, state in sorted(self._states.items()):
            out.append([list(key), {
                "buckets": list(state.bucket_counts),
                "bounds": list(self.buckets),
                "sum": state.total,
                "count": state.count,
            }])
        return out

    def render(self) -> List[str]:
        lines: List[str] = []
        for key, state in sorted(self._states.items()):
            cumulative = 0
            for bound, n in zip(self.buckets, state.bucket_counts):
                cumulative += n
                suffix = self._label_suffix(
                    key, f'le="{_format_value(bound)}"')
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            cumulative += state.bucket_counts[-1]
            suffix = self._label_suffix(key, 'le="+Inf"')
            lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            plain = self._label_suffix(key)
            lines.append(f"{self.name}_sum{plain} {_format_value(state.total)}")
            lines.append(f"{self.name}_count{plain} {state.count}")
        return lines


class _BoundHistogram:
    __slots__ = ("_metric", "_label_key")

    def __init__(self, metric: Histogram, label_key: _LabelKey) -> None:
        self._metric = metric
        self._label_key = label_key

    def observe(self, value: float) -> None:
        self._metric._observe(self._label_key, value)


class MetricsRegistry:
    """Get-or-create metric store with deterministic snapshots."""

    active: bool = True

    def __init__(self) -> None:
        self._metrics: Dict[str, _Metric] = {}

    def _get_or_create(self, cls: Type[_Metric], name: str,
                       **kwargs: Any) -> _Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ConfigurationError(
                    f"metric {name} already registered as {existing.kind}")
            return existing
        metric = cls(name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "",
                labels: Sequence[str] = ()) -> Counter:
        metric = self._get_or_create(Counter, name, help=help, unit=unit,
                                     label_names=labels)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, help: str = "", unit: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        metric = self._get_or_create(Gauge, name, help=help, unit=unit,
                                     label_names=labels)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, buckets: Sequence[float], help: str = "",
                  unit: str = "", labels: Sequence[str] = ()) -> Histogram:
        metric = self._get_or_create(Histogram, name, buckets=buckets,
                                     help=help, unit=unit, label_names=labels)
        assert isinstance(metric, Histogram)
        return metric

    def metrics(self) -> List[_Metric]:
        """Registered metrics sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def snapshot(self) -> Dict[str, Any]:
        """Deterministic, JSON-ready dump of every registered metric."""
        out: Dict[str, Any] = {}
        for metric in self.metrics():
            out[metric.name] = {
                "type": metric.kind,
                "help": metric.help,
                "unit": metric.unit,
                "labels": list(metric.label_names),
                "values": metric.snapshot_values(),
            }
        return out

    def render_prometheus(self) -> str:
        """Prometheus text exposition of the whole registry."""
        lines: List[str] = []
        for metric in self.metrics():
            help_text = metric.help
            if metric.unit:
                help_text = (f"{help_text} [{metric.unit}]" if help_text
                             else f"[{metric.unit}]")
            if help_text:
                lines.append(f"# HELP {metric.name} {_escape(help_text)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def clear(self) -> None:
        self._metrics.clear()


class Series(NamedTuple):
    """One :data:`CATALOG` row: a series' declaration and who reads it.

    ``reader`` is the operator question the series answers on
    ``/metrics`` or the code that consumes it; a series nobody reads has
    no row.  ``journal_derived`` series are a function of (config,
    journal), so a recovered or restored engine shows the values the
    uninterrupted one had; the others count this process's own I/O.
    """

    name: str
    kind: str
    help: str
    reader: str
    unit: str = ""
    labels: Tuple[str, ...] = ()
    buckets: Tuple[float, ...] = ()
    journal_derived: bool = True


#: Every ``rush_*`` series the product emits (docs/OBSERVABILITY.md
#: carries the same table, and the verdicts on the series retired).
CATALOG: Dict[str, Series] = {row.name: row for row in (
    Series("rush_degradation_fallbacks_total", "counter",
           "Planning rounds served by a fallback rung",
           "why did it degrade: which rung of the ladder is serving "
           "rounds, and did that start after a deploy or a load change?",
           labels=("rung",)),
    Series("rush_fault_injections_total", "counter",
           "Fault-log events by species (includes degradation:* fallback "
           "records)",
           "did the chaos plan fire what it was configured to? "
           "tests/test_obs.py uses it as the oracle for FaultLog",
           labels=("kind",)),
    Series("rush_journal_appends_total", "counter",
           "Records appended to the write-ahead journal",
           "what is the journal's write mix, and how close is the next "
           "checkpoint or rotation? (tests/test_journal.py)",
           labels=("kind",), journal_derived=False),
    Series("rush_journal_fsyncs_total", "counter",
           "fsync calls made durable by the journal",
           "fsyncs per append: ROADMAP 6c's group commit is working when "
           "this grows slower than rush_journal_appends_total",
           journal_derived=False),
    Series("rush_journal_housekeeping_failures_total", "counter",
           "Checkpoint, rotation or compaction failures after an applied "
           "event (contained, retried)",
           "is the disk refusing housekeeping? non-zero step=rotate means "
           "every write is refused until a restart (docs/SERVICE.md)",
           labels=("step",), journal_derived=False),
    Series("rush_journal_recovery_truncated_bytes", "counter",
           "Bytes of torn tail records discarded during journal recovery",
           "did the last stop tear a record, and how much did recovery "
           "cut? (tests/test_journal.py)",
           journal_derived=False),
    Series("rush_onion_certified_probes_total", "counter",
           "Feasibility probes answered without an evaluation",
           "is the planner in the cheap ceiling-capped regime or the "
           "capacity-bound one, and when did that flip? (certified vs "
           "evaluated; tests/test_onion_certificates.py)",
           unit="probes"),
    Series("rush_onion_feasibility_checks_total", "counter",
           "Staircase feasibility evaluations",
           "where is the time going: passes are the onion's unit of work; "
           "over rush_plans_total it is the cost of one round "
           "(tests/test_onion_certificates.py checks it against profile())",
           unit="checks"),
    Series("rush_plans_total", "counter",
           "Robust planning rounds completed",
           "how often does the scheduler replan? the denominator of every "
           "per-round ratio on this page"),
    Series("rush_sched_dirty_jobs", "histogram",
           "Estimates refreshed per planning round",
           "is dirty tracking holding: how much of the fleet re-estimates "
           "per round (the ledger's scheduler.estimates_refreshed_share)?",
           unit="jobs",
           buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)),
    Series("rush_service_jobs_cancelled_total", "counter",
           "Cancellations accepted by the service",
           "how many admitted jobs did each tenant withdraw?",
           labels=("tenant",)),
    Series("rush_service_jobs_submitted_total", "counter",
           "Jobs accepted by the service",
           "how many commitments were made to each tenant? "
           "service/smoke.py requires it on the scrape",
           labels=("tenant",)),
    Series("rush_sim_queue_depth", "gauge",
           "Pending tasks across active jobs",
           "is a backlog building? (SimulationResult.metrics_snapshot, "
           "tests/test_obs.py)",
           unit="tasks"),
    Series("rush_sim_tasks_completed_total", "counter",
           "Logical task completions",
           "is work finishing, and at what rate? service/smoke.py "
           "requires it on the scrape"),
    Series("rush_sim_utilization", "histogram",
           "Per-slot fraction of busy containers",
           "is the cluster saturated or idle, slot by slot?",
           unit="fraction", buckets=(0.1, 0.25, 0.5, 0.75, 0.9, 1.0)),
    Series("rush_swf_jobs_total", "counter",
           "SWF jobs ingested or skipped, by outcome",
           "ScenarioOutcome.ingestion_metrics in the hpc-replay artifact",
           labels=("outcome",), journal_derived=False),
    Series("rush_swf_lines_total", "counter",
           "Lines consumed by the SWF parser",
           "ScenarioOutcome.ingestion_metrics in the hpc-replay artifact",
           journal_derived=False),
    Series("rush_swf_records_total", "counter",
           "Job records parsed from SWF archives",
           "ScenarioOutcome.ingestion_metrics in the hpc-replay artifact",
           journal_derived=False),
    Series("rush_wcde_cache_total", "counter",
           "WcdeCache lookups by outcome",
           "is estimate churn defeating the memo: what share of per-job "
           "robust-demand queries (hit, miss) paid a fresh solve?",
           labels=("outcome",)),
)}

_KINDS: Dict[str, Type[_Metric]] = {
    cls.kind: cls for cls in (Counter, Gauge, Histogram)}


def catalogued(registry: MetricsRegistry, name: str, cls: Type[_M]) -> _M:
    """``registry``'s instance of a :data:`CATALOG` series, made on first use.

    What ``repro.obs.count`` / ``set_gauge`` / ``observe`` resolve a
    name through: a name with no row, or a row of another kind, is a
    :class:`ConfigurationError` at the call site.
    """
    metric = registry._metrics.get(name)
    if metric is None:
        row = CATALOG.get(name)
        if row is None:
            raise ConfigurationError(
                f"{name} has no row in repro.obs.metrics.CATALOG: a series "
                "is declared there, with its reader, or not emitted")
        extra = {"buckets": row.buckets} if row.kind == "histogram" else {}
        metric = registry._get_or_create(
            _KINDS[row.kind], name, help=row.help, unit=row.unit,
            label_names=row.labels, **extra)
    if not isinstance(metric, cls):
        raise ConfigurationError(
            f"metric {name} is a {metric.kind}, not a {cls.kind}")
    return metric


class NullMetrics:
    """No-op registry installed by default: nothing registers, and the
    emit helpers of :mod:`repro.obs` return before resolving a name."""

    active: bool = False

    def metrics(self) -> List[_Metric]:
        return []

    def snapshot(self) -> Dict[str, Any]:
        return {}

    def render_prometheus(self) -> str:
        return ""

    def clear(self) -> None:
        return None


NULL_METRICS = NullMetrics()
