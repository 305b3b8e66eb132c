"""The codec for the journal's ``anchor.json``: engine state, verified.

:meth:`~repro.service.journal.JournalWriter.compact` writes the engine
as it stands — :meth:`~repro.service.engine.ServiceEngine.state_dict`,
the state of everything the service config builds — and
:func:`restore_engine` rebuilds it with
:meth:`~repro.service.engine.ServiceEngine.from_state`, so
:func:`~repro.service.journal.recover_engine` replays only the WAL
records written after the anchor: recovery costs the suffix, not the
uptime.  Format (JSON; the journal adds ``"journal_seq": N``)::

    {"format": "rush-service-snapshot", "version": 5,
     "config": {...},        # ServiceConfig.to_dict()
     "slot": 42,             # the slot the engine had reached
     "decisions_digest": "<sha256 of the decision stream>",
     "state": {...},         # ServiceEngine.state_dict()
     "state_digest": "<sha256 of the state's canonical JSON>"}

What is written is what the next event depends on: the live jobs (a
job's untouched tasks are implied by its spec, so the state grows with
launched attempts, not with tasks), one flat row per completed or
cancelled job (the simulator keeps only that row once a job retires:
its record's fields and the task counts its status reports), the
containers, the decision rows, the
scheduler's DE units, counters and last good plan, the fault injectors'
generator states and log, the tenant registry, the queued events and
the engine's idempotency keys and cursors.  Pure memos — the WCDE
cache, the Gaussian PMF memo, the cached demand estimates — are rebuilt,
not written.  A running SHA-256 cannot be saved, so the restored decision
rows are digested again and must equal ``decisions_digest``.

The anchor is input from outside the program, so it is checked, not
trusted.  ``state_digest`` seals the state: any edit to it — a job's
task durations, a sample, a generator state — that does not also forge
the seal is refused before anything is built.  A sealed state is still
checked for shape: a field of the wrong type, a container running an
attempt its job does not have, a running attempt no container holds, a
RUSH estimator for a job that is not active (or an active job without
one), a retired job that is also live or retired twice, a completed
row without a completion slot, a cancelled one with a completion
record, or rows that digest to anything but the recorded digest is
refused with :class:`SnapshotError` before an engine is returned —
never half-loaded.

A version-4 anchor is engine state written before jobs retired: it
lists every job in full and names the finished ones by id, and the
same loader retires each of those as it reads it.  Versions 1 to 3
froze the engine's *inputs* (config, every accepted entry, slot) and
are still read, by replaying those entries through a fresh engine.
Both paths exist only for journals an older release wrote, and
:func:`~repro.service.journal.open_journal` re-anchors them at version 5
before it appends.  A version-1 file that could carry a
solver-fault depth (four ladder rungs) is refused, and so is a
version-1 or -2 file of the ``rush`` policy, whose planner chose the
jobs left at the utility floor by a rule since retired.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro import state as st
from repro.core.clock import Clock
from repro.errors import ConfigurationError, ReproError, ServiceError
from repro.service.engine import ServiceConfig, ServiceEngine

__all__ = ["SNAPSHOT_FORMAT", "SNAPSHOT_VERSION", "take_snapshot",
           "restore_engine", "load_snapshot", "state_digest"]

SNAPSHOT_FORMAT = "rush-service-snapshot"
SNAPSHOT_VERSION = 5

#: Versions whose anchor is engine state, read by :func:`_load_state`.
STATE_VERSIONS = (4, SNAPSHOT_VERSION)


class SnapshotError(ServiceError):
    """A snapshot is malformed or replay failed to reproduce its state."""

    code = "snapshot-error"
    status = 500


#: Why a version-1 file that could carry a solver-fault depth is refused.
V1_FAULT_DEPTHS = ("was written by a version-1 release, whose solver-fault "
                   "depths count four ladder rungs: refused, not replayed")


#: Why a version-1 or -2 file of the ``rush`` policy is refused; formatted
#: with the file's version.
PRE_V3_RUSH = ("was written by a version-{} release, whose RUSH planner "
               "sacrificed jobs at the utility floor by the retired floor "
               "look-ahead, so its decisions no longer replay: refused, "
               "not replayed")


def _could_carry_fault_depths(config: ServiceConfig, journal: list) -> bool:
    spec = config.fault_spec if isinstance(config.fault_spec, Mapping) else {}
    return any(isinstance(item, Mapping)
               and item.get("kind") in ("solver_budget", "solver_fault")
               for item in [*(spec.get("injectors") or ()), *journal])


def state_digest(state: Mapping[str, Any]) -> str:
    """SHA-256 of ``state``'s canonical JSON (sorted keys).

    A state is JSON values with string keys, and a float's repr
    round-trips, so the digest of a state read back from its file equals
    the digest of the state that was written.  The JSON is hashed in
    :func:`~repro.state.json_pieces`, never held whole.
    """
    sha = hashlib.sha256()
    for piece in st.json_pieces(state):
        sha.update(piece.encode("utf-8"))
    return sha.hexdigest()


def take_snapshot(engine: ServiceEngine) -> Dict[str, Any]:
    """The engine's state as a version-5 snapshot; read-only, any time."""
    state = engine.state_dict()
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "config": engine.config.to_dict(),
        "slot": engine.slot,
        "decisions_digest": engine.decisions_digest(),
        "state": state,
        "state_digest": state_digest(state),
    }


def restore_engine(snapshot: Mapping[str, Any], *,
                   clock: Optional[Clock] = None) -> ServiceEngine:
    """Rebuild an engine from a snapshot, digest-verified.

    A version-4 or -5 snapshot is loaded through
    :meth:`~repro.service.engine.ServiceEngine.from_state`; an older one
    is replayed from its inputs.  Either way the rebuilt decision stream
    must digest to the snapshot's ``decisions_digest``; a mismatch, a
    malformed state or a snapshot without a digest raises
    :class:`SnapshotError` instead of returning a silently different
    engine.

    ``clock`` may be a real-time clock (its ``advance`` never sleeps, so
    it is fast-forwarded to the snapshot's slot); the daemon rebases it
    afterwards.
    """
    if not isinstance(snapshot, Mapping):
        raise SnapshotError("snapshot must be a JSON object")
    if snapshot.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"not a service snapshot (format {snapshot.get('format')!r})")
    version = snapshot.get("version")
    if version not in (1, 2, 3, *STATE_VERSIONS):
        raise SnapshotError(f"unsupported snapshot version {version!r}")
    # Every snapshot and anchor ever written carries the digest; one
    # without it could only be loaded unverified, so it is refused.
    expected = snapshot.get("decisions_digest")
    if not isinstance(expected, str):
        raise SnapshotError(
            "snapshot has no decisions_digest to verify its state "
            f"against (got {type(expected).__name__})")
    if version in STATE_VERSIONS:
        engine = _load_state(snapshot, version, clock)
    else:
        engine = _replay_inputs(snapshot, version, clock)
    actual = engine.decisions_digest()
    if actual != expected:
        raise SnapshotError(
            "the restored engine diverged from the snapshotted run: "
            f"decision digest {actual[:12]}… != expected {expected[:12]}…")
    return engine


def _load_state(snapshot: Mapping[str, Any], version: int,
                clock: Optional[Clock]) -> ServiceEngine:
    """A version-4 or -5 snapshot's engine; any malformation is a
    :class:`SnapshotError`, raised before the engine escapes."""
    sealed = snapshot.get("state_digest")
    if not isinstance(sealed, str):
        raise SnapshotError(
            f"version-{version} snapshot has no state_digest to verify its "
            f"state against (got {type(sealed).__name__})")
    state = snapshot.get("state")
    try:
        actual = state_digest(st.mapping(state))
    except (TypeError, ValueError) as exc:
        raise SnapshotError(
            f"malformed version-{version} snapshot state: "
            f"{type(exc).__name__}: {exc}") from None
    if actual != sealed:
        raise SnapshotError(
            "the snapshot's state was altered after it was written: "
            f"state digest {actual[:12]}… != sealed {sealed[:12]}…")
    try:
        config = ServiceConfig.from_dict(st.mapping(snapshot["config"]))
        slot = st.integer(snapshot["slot"])
        engine = ServiceEngine.from_state(config, state, clock=clock)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError,
            ReproError) as exc:
        raise SnapshotError(
            f"malformed version-{version} snapshot state: "
            f"{type(exc).__name__}: {exc}") from None
    if engine.slot != slot:
        raise SnapshotError(f"snapshot slot {slot} but its state is at "
                            f"slot {engine.slot}")
    return engine


def _replay_inputs(snapshot: Mapping[str, Any], version: int,
                   clock: Optional[Clock]) -> ServiceEngine:
    """A version-1 to -3 snapshot's engine, rebuilt by replaying its
    journal of inputs.

    The replay interleaves journal entries with ticks exactly as the
    original run did — each entry goes through the engine's one
    :meth:`~repro.service.engine.ServiceEngine.apply` while the clock
    sits at the slot it was originally accepted in (the ticks are
    implied by the entries' ``due`` slots), so tenant quotas, event
    ordering and fault streams all re-derive identically.
    """
    try:
        config = ServiceConfig.from_dict(snapshot["config"])
        target_slot = int(snapshot["slot"])
        auto_seq = int(snapshot.get("auto_seq", 0))
        journal = list(snapshot.get("journal") or [])
    except (KeyError, TypeError, ValueError, ConfigurationError) as exc:
        raise SnapshotError(f"malformed snapshot: {exc}") from None
    if version == 1 and _could_carry_fault_depths(config, journal):
        raise SnapshotError(f"this snapshot {V1_FAULT_DEPTHS}")
    if version != 3 and config.policy == "rush":
        raise SnapshotError(f"this snapshot {PRE_V3_RUSH.format(version)}")

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
