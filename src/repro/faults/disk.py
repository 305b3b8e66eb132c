"""Filesystem fault injection for the write-ahead journal.

The durability claim of :mod:`repro.service.journal` — "every accepted
event survives a crash, or recovery fails loudly" — is only worth
stating if it is exercised against the ways disks actually betray a
process: a write torn mid-record by a power cut, an fsync that only
persisted a prefix of the dirty bytes, a full volume, a retried append
that landed twice.  This module manufactures exactly those conditions.

The injection point is an *injectable file-op layer*: the journal never
calls ``open``/``write``/``fsync`` directly but goes through an object
satisfying :class:`JournalFileOps`.  Production passes the real
implementation (``repro.service.journal.RealFileOps``, the single
sanctioned writer under lint rule RL015); tests pass a
:class:`FaultyFileOps` wrapper instead — so no prod code is ever
monkeypatched to simulate a disk fault.

Crash semantics are modelled explicitly: bytes written but not yet
fsynced are *volatile*.  When a species fires, the wrapper promotes
whatever the species says survived, truncates every tracked file back
to its durable watermark, closes the handles, and raises
:class:`SimulatedCrashError` — from the caller's point of view the
process died mid-operation and the directory is left exactly as a real
crash would leave it.

Determinism contract: the tear points and surviving prefixes come from
a seeded ``numpy`` generator, so a crash-point sweep is reproducible
draw for draw.  The fault fires on the ``at_op``-th write operation
(1-based), which lets a harness enumerate every journaled event
boundary by sweeping ``at_op`` over the write count of a clean run.
"""

from __future__ import annotations

import os
from typing import IO, Dict, Protocol, Tuple

import numpy as np

__all__ = [
    "DISK_FAULT_SPECIES",
    "DiskFaultError",
    "FaultyFileOps",
    "JournalFileOps",
    "SimulatedCrashError",
]


class SimulatedCrashError(Exception):
    """The injected crash: the "process" died inside a file operation.

    Deliberately *not* an :class:`OSError` subclass — the journal wraps
    ``OSError`` into a typed retryable error, but a crash must
    propagate to the harness unhandled, exactly like ``kill -9`` would.
    """


class DiskFaultError(Exception):
    """A :class:`FaultyFileOps` was configured or driven incorrectly."""


class JournalFileOps(Protocol):
    """The file-op seam the journal writes through.

    ``repro.service.journal.RealFileOps`` is the production
    implementation; :class:`FaultyFileOps` wraps any implementation to
    inject faults.  All paths are strings; ``write`` must issue the
    payload as a single operation (the journal's atomic-append
    discipline) and return the bytes written — fewer than asked is a
    short write, which the journal refuses like an ``OSError`` — and
    ``fsync`` makes previously written bytes durable.
    """

    def open_append(self, path: str) -> IO[bytes]: ...

    def write(self, fobj: IO[bytes], data: bytes) -> int: ...

    def fsync(self, fobj: IO[bytes]) -> None: ...

    def close(self, fobj: IO[bytes]) -> None: ...

    def write_bytes(self, path: str, data: bytes) -> None: ...

    def replace(self, src: str, dst: str) -> None: ...

    def remove(self, path: str) -> None: ...

    def truncate(self, path: str, size: int) -> None: ...

    def fsync_dir(self, path: str) -> None: ...


#: The disk-fault species, in the order documented in docs/FAULTS.md.
DISK_FAULT_SPECIES: Tuple[str, ...] = (
    "crash",          # die cleanly before the chosen write begins
    "torn_write",     # a seeded prefix of the record survives, then die
    "partial_fsync",  # fsync persists a seeded prefix of dirty bytes, then die
    "enospc",         # a short write lands, then ENOSPC; the process lives on
    "dup_tail",       # the record is written twice (a retried append), then die
)


class _TrackedFile:
    """Durable-vs-volatile accounting for one open journal file."""

    __slots__ = ("path", "inner", "size", "durable")

    def __init__(self, path: str, inner: IO[bytes], size: int) -> None:
        self.path = path
        self.inner = inner
        self.size = size          # bytes written (durable + volatile)
        self.durable = size       # bytes that survive a crash


class FaultyFileOps:
    """A seeded disk-fault wrapper around a :class:`JournalFileOps`.

    ``species`` picks the failure mode (see :data:`DISK_FAULT_SPECIES`)
    and ``at_op`` the 1-based write operation it strikes; every other
    operation delegates untouched.  After a crash fires, every further
    operation raises :class:`SimulatedCrashError` — dead processes do
    not write.  The ``writes`` counter (total write operations seen)
    lets a harness size its crash-point sweep from a clean run.
    """

    def __init__(self, inner: JournalFileOps, *, species: str,
                 at_op: int, seed: int = 0) -> None:
        if species not in DISK_FAULT_SPECIES:
            known = ", ".join(DISK_FAULT_SPECIES)
            raise DiskFaultError(
                f"unknown disk-fault species {species!r}; known: {known}")
        if at_op < 1:
            raise DiskFaultError(
                f"at_op is a 1-based write index; got {at_op}")
        self.inner = inner
        self.species = species
        self.at_op = int(at_op)
        self.seed = int(seed)
        self._rng = np.random.default_rng(seed)
        self.writes = 0           # write operations observed so far
        self.fired = False        # the configured fault has struck
        self._dead = False
        self._partial_fsync_armed = False
        self._files: Dict[int, _TrackedFile] = {}

    # -- crash machinery -------------------------------------------------

    def _check_alive(self) -> None:
        if self._dead:
            raise SimulatedCrashError(
                "file operation after a simulated crash")

    def _crash(self, message: str) -> None:
        """Apply the durable watermarks and die.

        Volatile (written-but-unsynced) bytes are discarded by
        truncating each tracked file back to its durable size — the
        on-disk state a real crash would expose to recovery.
        """
        self._dead = True
        self.fired = True
        for tracked in self._files.values():
            try:
                tracked.inner.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
            os.truncate(tracked.path, tracked.durable)
        self._files.clear()
        raise SimulatedCrashError(message)

    def _seeded_prefix(self, length: int) -> int:
        """A tear point strictly inside ``[0, length)`` when possible."""
        if length <= 1:
            return 0
        return int(self._rng.integers(1, length))

    # -- JournalFileOps ----------------------------------------------------

    def open_append(self, path: str) -> IO[bytes]:
        self._check_alive()
        inner = self.inner.open_append(path)
        size = os.path.getsize(path)
        self._files[id(inner)] = _TrackedFile(path, inner, size)
        return inner

    def write(self, fobj: IO[bytes], data: bytes) -> int:
        self._check_alive()
        self.writes += 1
        tracked = self._files.get(id(fobj))
        if tracked is None:
            raise DiskFaultError("write to a file not opened through "
                                 "this file-op layer")
        if self.writes == self.at_op:
            return self._faulty_write(tracked, data)
        self.inner.write(fobj, data)
        tracked.size += len(data)
        return len(data)

    def _faulty_write(self, tracked: _TrackedFile, data: bytes) -> int:
        if self.species == "crash":
            self._crash("simulated crash before append")
        if self.species == "torn_write":
            keep = self._seeded_prefix(len(data))
            if keep:
                self.inner.write(tracked.inner, data[:keep])
                tracked.size += keep
                tracked.durable = tracked.size  # the torn prefix persisted
            self._crash(f"simulated torn write ({keep}/{len(data)} bytes)")
        if self.species == "enospc":
            # The volume fills mid-record: a seeded prefix lands (a
            # short write) and the process lives on to clean it up.
            # No watermark moves — this species never crashes, and the
            # journal truncates the residue away.
            self.fired = True
            keep = self._seeded_prefix(len(data))
            if keep:
                self.inner.write(tracked.inner, data[:keep])
            raise OSError(28, "No space left on device (injected)")
        if self.species == "dup_tail":
            self.inner.write(tracked.inner, data + data)
            tracked.size += 2 * len(data)
            tracked.durable = tracked.size  # both copies persisted
            self._crash("simulated duplicated tail record")
        # partial_fsync: the write itself succeeds in full; the fault
        # strikes at the following fsync, which persists only a prefix.
        self.inner.write(tracked.inner, data)
        tracked.size += len(data)
        self._partial_fsync_armed = True
        return len(data)

    def fsync(self, fobj: IO[bytes]) -> None:
        self._check_alive()
        tracked = self._files.get(id(fobj))
        if tracked is None:
            raise DiskFaultError("fsync of a file not opened through "
                                 "this file-op layer")
        if self._partial_fsync_armed:
            pending = tracked.size - tracked.durable
            kept = self._seeded_prefix(pending)
            tracked.durable += kept
            self._crash(f"simulated partial fsync ({kept}/{pending} "
                        "dirty bytes persisted)")
        self.inner.fsync(fobj)
        tracked.durable = tracked.size

    def close(self, fobj: IO[bytes]) -> None:
        self._check_alive()
        tracked = self._files.pop(id(fobj), None)
        self.inner.close(fobj)
        if tracked is not None:
            # An explicit close flushes user-space buffers; without an
            # fsync the bytes are still volatile.  Keep the watermark.
            self._files.pop(id(fobj), None)

    def write_bytes(self, path: str, data: bytes) -> None:
        self._check_alive()
        self.writes += 1
        if self.writes == self.at_op:
            if self.species == "enospc":
                self.fired = True
                raise OSError(28, "No space left on device (injected)")
            if self.species in ("torn_write", "partial_fsync"):
                keep = self._seeded_prefix(len(data))
                self.inner.write_bytes(path, data[:keep])
                self._crash(f"simulated torn file write ({keep}/"
                            f"{len(data)} bytes)")
            if self.species == "crash":
                self._crash("simulated crash before file write")
            # dup_tail is meaningless for whole-file writes; fall through.
        self.inner.write_bytes(path, data)

    def replace(self, src: str, dst: str) -> None:
        self._check_alive()
        self.inner.replace(src, dst)

    def remove(self, path: str) -> None:
        self._check_alive()
        self.inner.remove(path)

    def truncate(self, path: str, size: int) -> None:
        self._check_alive()
        self.inner.truncate(path, size)

    def fsync_dir(self, path: str) -> None:
        self._check_alive()
        self.inner.fsync_dir(path)

    # -- reporting -------------------------------------------------------

    def params(self) -> Dict[str, object]:
        """The injector's configuration, FaultPlan-spec style."""
        return {"species": self.species, "at_op": self.at_op,
                "seed": self.seed}
