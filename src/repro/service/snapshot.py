"""The codec for the journal's ``anchor.json``: freeze and replay.

The engine's behaviour is a pure function of (config, journal): every
external input is journaled with the slot it became due, and everything
below the journal — planner, estimators, utility ledger, fault streams —
is deterministic given the slot sequence.  So the anchor that
:meth:`~repro.service.journal.JournalWriter.compact` writes does not
serialize the planner's matrices or the estimators' sample buffers at
all; :func:`take_snapshot` freezes the *inputs* (config + journal +
current slot) and :func:`restore_engine` rebuilds the state by
replaying them through a fresh engine, for
:func:`~repro.service.journal.recover_engine`.  That is both simpler
and stronger than pickling internals: the rebuilt engine provably
re-derives the same decisions, and the anchor carries a digest of the
decision stream so recovery can verify the equivalence instead of
assuming it.

Format (JSON-able; the journal adds ``"journal_seq": N``)::

    {"format": "rush-service-snapshot", "version": 2,
     "config": {...},        # ServiceConfig.to_dict()
     "slot": 42,             # the slot the engine had reached
     "auto_seq": 7,          # auto-id counter, so new ids never collide
     "journal": [...],       # ordered submit/cancel/solver_fault entries
     "decisions_digest": "<sha256 of the decision stream>"}

The anchor is input from outside the program, so it is checked, not
trusted: a file without a string ``decisions_digest`` is refused (it
could only be replayed unverified), and so is a version-1 file (four
ladder rungs) that could carry a fault depth.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.core.clock import Clock
from repro.errors import ConfigurationError, ServiceError
from repro.service.engine import ServiceConfig, ServiceEngine

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "take_snapshot",
           "restore_engine", "load_snapshot"]

SNAPSHOT_FORMAT = "rush-service-snapshot"
SNAPSHOT_VERSION = 2


class SnapshotError(ServiceError):
    """A snapshot is malformed or replay failed to reproduce its state."""

    code = "snapshot-error"
    status = 500


#: Why a version-1 file that could carry a solver-fault depth is refused.
V1_FAULT_DEPTHS = ("was written by a version-1 release, whose solver-fault "
                   "depths count four ladder rungs: refused, not replayed")


def _could_carry_fault_depths(config: ServiceConfig, journal: list) -> bool:
    spec = config.fault_spec if isinstance(config.fault_spec, Mapping) else {}
    return any(isinstance(item, Mapping)
               and item.get("kind") in ("solver_budget", "solver_fault")
               for item in [*(spec.get("injectors") or ()), *journal])


def take_snapshot(engine: ServiceEngine) -> Dict[str, Any]:
    """Freeze the engine's inputs; cheap, read-only, any time."""
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config": engine.config.to_dict(),
        "slot": engine.slot,
        "auto_seq": engine._auto_seq,
        "journal": [dict(entry) for entry in engine.journal],
        "decisions_digest": engine.decisions_digest(),
    }


def restore_engine(snapshot: Mapping[str, Any], *,
                   clock: Optional[Clock] = None) -> ServiceEngine:
    """Rebuild an engine from a snapshot by replaying its journal.

    The replay interleaves journal entries with ticks exactly as the
    original run did — each entry goes through the engine's one
    :meth:`~repro.service.engine.ServiceEngine.apply` while the clock
    sits at the slot it was originally accepted in (the ticks are
    implied by the entries' ``due`` slots), so tenant quotas, event
    ordering and fault streams all re-derive identically.  The rebuilt
    decision stream is checked against the snapshot's digest; a
    mismatch — or a snapshot without a digest, which could only be
    replayed unverified — raises :class:`SnapshotError` rather than
    resuming from a silently divergent state.

    ``clock`` may be a real-time clock (its ``advance`` never sleeps, so
    replay is instant); the daemon rebases it afterwards.
    """
    if not isinstance(snapshot, Mapping):
        raise SnapshotError("snapshot must be a JSON object")
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"not a service snapshot (format {snapshot.get('format')!r})")
    version = snapshot.get("version")
    if version not in (1, SNAPSHOT_VERSION):
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    try:
        config = ServiceConfig.from_dict(snapshot["config"])
        target_slot = int(snapshot["slot"])
        auto_seq = int(snapshot.get("auto_seq", 0))
        journal = list(snapshot.get("journal") or [])
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    if version == 1 and _could_carry_fault_depths(config, journal):
        raise SnapshotError(f"this snapshot {V1_FAULT_DEPTHS}")
    # Every snapshot and anchor ever written carries the digest; one
    # without it could only be replayed unverified, so it is refused.
    expected = snapshot.get("decisions_digest")
    if not isinstance(expected, str):
        raise SnapshotError(
            "snapshot has no decisions_digest to verify its replay "
            f"against (got {type(expected).__name__})")

    engine = ServiceEngine(config, clock=clock)
    for entry in journal:
        try:
            due = int(entry["due"])
        except (KeyError, TypeError, ValueError):
            raise SnapshotError(
                f"journal entry without a due slot: {entry!r}") from None
        if due < engine.slot:
            raise SnapshotError(
                f"journal is out of order: entry due {due} after "
                f"slot {engine.slot}")
        while engine.slot < due:
            engine.apply({"kind": "tick", "due": engine.slot})
        try:
            engine.apply(entry)
        except (ServiceError, ConfigurationError) as exc:  # e.g. a bad depth
            raise SnapshotError(
                f"journal entry no longer replays: {exc}") from None
    while engine.slot < target_slot:
        engine.apply({"kind": "tick", "due": engine.slot})
    if engine._auto_seq < auto_seq:
        # Only a pre-WAL snapshot, whose submit entries carry no
        # ``auto_seq``, can hold a counter its journal does not imply.
        raise SnapshotError(
            f"snapshot auto_seq {auto_seq} is not implied by its journal "
            f"(replay reached {engine._auto_seq}): new ids would collide")

    actual = engine.decisions_digest()
    if actual != expected:
        raise SnapshotError(
            "replay diverged from the snapshotted run: decision "
            f"digest {actual[:12]}… != expected {expected[:12]}…")
    return engine


def load_snapshot(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a snapshot file; malformed JSON raises :class:`SnapshotError`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from None
    if not isinstance(data, dict):
        raise SnapshotError(f"snapshot {path} is not a JSON object")
    return data
