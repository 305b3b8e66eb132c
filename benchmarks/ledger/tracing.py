"""Layer-boundary spans recorded from outside the program.

Nothing under ``src/`` is edited: :func:`install` replaces the *public*
entry points of each layer with timing wrappers (and only those — no
private name is touched), so a span is one call across a layer
boundary.  A span is ``[name, start, end, parent, root, attr]``;
``parent``/``root`` are indices into the span list (``-1`` = none).  The
engine is single-threaded and never awaits inside a call, so a plain
stack gives the parent, and the bottom of the stack is the root.
``start``/``end`` are ``time.perf_counter()`` readings —
``CLOCK_MONOTONIC`` on Linux, one timebase for the driver and the
server, which is what lets the attribution line a span up with the
request that caused it.

Spans stay in memory; :meth:`Recorder.dump` writes them as JSON lines
when the run ends.  A span's layer is its name up to the first dot.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layers in the order the tables print them (span-name prefixes).
LAYERS = ("engine", "protocol", "tenants", "journal", "snapshot",
          "simulator", "scheduler", "estimation", "planner", "wcde",
          "onion", "mapping")


class Recorder:
    """An append-only span list plus the open-call stack."""

    def __init__(self) -> None:
        self.spans: List[Optional[list]] = []
        self.stack: List[int] = []
        #: The engine most recently ticked — for the end-of-run profile.
        self.engine: Any = None

    def wrap(self, name: str, fn: Callable[..., Any],
             attr: Optional[Callable[..., Any]] = None) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``attr(args, kwargs, result)`` may return a JSON-able value kept
        on the span (a job id, a byte count, plan counters).
        """
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            parent = stack[-1] if stack else -1
            root = stack[0] if stack else index
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                value = attr(args, kwargs, result) if attr is not None else None
                spans[index] = [name, start, end, parent, root, value]

        return traced

    def dump(self, path: str, extra: Dict[str, Any]) -> None:
        """Write the closed spans, then one ``extra`` object, as JSON lines.

        A span still open when the process was told to stop keeps its
        slot in the file as ``null`` so indices stay valid.
        """
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"extra": extra}) + "\n")


def load(path: str) -> Tuple[List[Optional[list]], Dict[str, Any]]:
    """Read a :meth:`Recorder.dump` file back: (spans, extra)."""
    spans: List[Optional[list]] = []
    extra: Dict[str, Any] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if isinstance(item, dict):
                extra = item["extra"]
            else:
                spans.append(item)
    return spans, extra


def _job_id_of_submit(args: tuple, _kwargs: dict, result: Any) -> Any:
    if isinstance(result, dict):
        return result.get("job_id")
    payload = args[1] if len(args) > 1 else None
    return payload.get("job_id") if isinstance(payload, dict) else None


def _plan_counters(args: tuple, _kwargs: dict, plan: Any) -> Any:
    if plan is None:
        return None
    stats = plan.stats
    return {"jobs": len(args[1]), "presolved": stats.wcde_presolved,
            "cache_hits": stats.wcde_cache_hits,
            "cache_misses": stats.wcde_cache_misses,
            "peels": stats.peels, "checks": stats.feasibility_checks}


def install(recorder: Recorder) -> Callable[[], None]:
    """Put a span around the public entry points of every layer.

    Returns the function that puts the originals back.
    """
    import repro.cli
    import repro.core.planner as planner_mod
    import repro.core.wcde as wcde_mod
    import repro.service.daemon as daemon_mod
    import repro.service.engine as engine_mod
    import repro.service.journal as journal_mod
    import repro.service.protocol as protocol_mod
    import repro.service.snapshot as snapshot_mod
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.planner import IncrementalPlanner, RushPlanner
    from repro.core.wcde import WcdeCache
    from repro.estimation.base import DistributionEstimator
    from repro.schedulers.rush import RushScheduler
    from repro.service.engine import ServiceEngine
    from repro.service.journal import JournalWriter, RealFileOps
    from repro.service.tenants import TenantRegistry

    originals: List[Tuple[Any, str, Any]] = []

    def span(owners: Any, attribute: str, name: str,
             attr: Optional[Callable[..., Any]] = None) -> None:
        """Wrap ``owners[0].attribute`` once; rebind it on every owner —
        a class, or each module whose callers look the function up."""
        owners = owners if isinstance(owners, tuple) else (owners,)
        traced = recorder.wrap(name, getattr(owners[0], attribute), attr)
        for owner in owners:
            originals.append((owner, attribute, getattr(owner, attribute)))
            setattr(owner, attribute, traced)

    def second_arg(args: tuple, _kwargs: dict, _result: Any) -> Any:
        return args[1] if len(args) > 1 else None

    def ticked(args: tuple, _kwargs: dict, result: Any) -> Any:
        recorder.engine = args[0]
        return result["slot"] - 1 if isinstance(result, dict) else None

    span(ServiceEngine, "submit", "engine.submit", _job_id_of_submit)
    span(ServiceEngine, "cancel", "engine.cancel", second_arg)
    span(ServiceEngine, "tick", "engine.tick", ticked)
    span(ServiceEngine, "job_status", "engine.job_status", second_arg)
    span(ServiceEngine, "list_jobs", "engine.list_jobs")
    span(ServiceEngine, "cluster_status", "engine.cluster_status")
    span((protocol_mod, engine_mod), "parse_submit", "protocol.parse_submit")
    span((protocol_mod, engine_mod), "canonical_digest",
         "protocol.canonical_digest")
    span(TenantRegistry, "admit", "tenants.admit")
    span(JournalWriter, "append", "journal.append",
         lambda a, k, r: a[1].get("kind"))
    span(JournalWriter, "note_applied", "journal.note_applied")
    span(JournalWriter, "compact", "journal.compact")
    span(RealFileOps, "write", "journal.write", lambda a, k, r: len(a[2]))
    span(RealFileOps, "fsync", "journal.fsync")
    span(journal_mod, "recover_engine", "journal.recover_engine",
         lambda a, k, r: r[1]["applied"] if r is not None else None)
    span((snapshot_mod, journal_mod, daemon_mod), "take_snapshot",
         "snapshot.take_snapshot")
    span((snapshot_mod, journal_mod, repro.cli), "restore_engine",
         "snapshot.restore_engine",
         lambda a, k, r: len(a[0].get("journal") or ()))
    span(ClusterSimulator, "step", "simulator.step")
    span(RushScheduler, "select_job", "scheduler.select_job")
    span(DistributionEstimator, "estimate", "estimation.estimate")
    span(IncrementalPlanner, "plan", "planner.incremental")
    span(RushPlanner, "plan", "planner.plan", _plan_counters)
    span(WcdeCache, "solve_batch", "wcde.solve_batch")
    span((wcde_mod, planner_mod), "solve_wcde_batch", "wcde.solve_wcde_batch")
    span(planner_mod, "solve_onion", "onion.solve_onion")
    span(planner_mod, "map_time_slots", "mapping.map_time_slots")

    def uninstall() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return uninstall
