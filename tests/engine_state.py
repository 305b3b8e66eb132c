"""Helpers for tests that compare or forge service snapshots.

A version-4 snapshot is the engine's state; two of its kinds of number
are measurements of the process that ran it rather than state: the
planner's wall-clock seconds, and the WCDE memo's hit/miss counts (the
memo is rebuilt cold, so a restored engine misses where the original
hit).  :func:`comparable` blanks exactly those, so equal engines compare
equal.  :func:`record_inputs` and :func:`inputs_snapshot` forge the
version-1 to -3 layout, which froze inputs, for the tests of the reader
that still loads it.
"""

from __future__ import annotations

import copy
from typing import Any, Dict, List

from repro.service import ServiceEngine


def _blank(node: Any) -> None:
    if isinstance(node, dict):
        for key in node:
            if key.endswith("_seconds") or key.startswith("wcde_cache_"):
                node[key] = None
            else:
                _blank(node[key])
    elif isinstance(node, list):
        for item in node:
            _blank(item)


def comparable(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``snapshot`` with the process's measurements blanked."""
    out = copy.deepcopy(snapshot)
    out["state_digest"] = None  # seals the measurements too
    scheduler = out["state"]["sim"]["scheduler"]
    if scheduler:
        scheduler["counters"][0] = None  # planner_seconds
        _blank(scheduler)
    return out


def record_inputs(engine: ServiceEngine) -> List[Dict[str, Any]]:
    """Collect every non-tick entry ``engine`` applies from now on — the
    ``journal`` a version-3 anchor froze."""
    entries: List[Dict[str, Any]] = []
    apply = engine.apply

    def recording(entry):
        apply(entry)
        if entry.get("kind") != "tick":
            entries.append(dict(entry))

    engine.apply = recording
    return entries


def inputs_snapshot(engine: ServiceEngine, entries: List[Dict[str, Any]],
                    version: int = 3) -> Dict[str, Any]:
    """The input-freezing snapshot an older release wrote of ``engine``."""
    return {"format": "rush-service-snapshot", "version": version,
            "config": engine.config.to_dict(), "slot": engine.slot,
            "auto_seq": engine._auto_seq,
            "journal": [dict(entry) for entry in entries],
            "decisions_digest": engine.decisions_digest()}
