"""The durable write-ahead journal behind ``rush serve --journal-dir``.

This module is the one way the service survives a restart, and it makes
the daemon crash-safe by construction.  Every externally-visible event
— ``submit``, ``cancel``, ``solver_fault``, each ``tick`` slot — is
framed, appended and fsynced to a segment file *before* the engine
applies it, so an accepted request is durable by the time its HTTP
response leaves the socket.  Recovery rebuilds the engine from the
anchor's state and replays the records after it through the one
:meth:`~repro.service.engine.ServiceEngine.apply` the live path calls:
the engine's behaviour is a pure function of (config, journal), so
re-applying the suffix re-derives the exact pre-crash decision stream —
and periodic checkpoint records carrying the decision-stream digest let
recovery *verify* that instead of assuming it.

On-disk layout (one directory)::

    anchor.json          # a rush-service-snapshot + "journal_seq": N
    wal-00000001.log     # segment: 8-byte magic, then framed records
    wal-00000042.log     # later segment, named by its first seq

Record framing: ``<u32 payload-length> <u32 crc32(payload)>`` followed
by the canonical-JSON payload ``{"seq": n, ...event}``.  Appends go
through exactly one helper (:meth:`JournalWriter.append` — lint rule
RL015 pins that nothing else under ``repro.service`` opens files for
writing), and each append is a single ``write`` + ``fsync``, so a crash
can only ever tear the final record.  Recovery truncates a torn tail
(metered as ``rush_journal_recovery_truncated_bytes``); any *other*
framing damage — a CRC mismatch, a sequence gap, a checkpoint whose
digest the replay cannot reproduce — raises
:class:`JournalCorruptError` naming the file and byte offset, because
resuming from a silently wrong log is worse than not resuming.

Compaction is snapshot-anchored: when a segment fills, the writer
rotates, writes a fresh anchor (the engine's state, digest and
``journal_seq``) via an atomic write-then-rename, and deletes the
segments the anchor now covers.  Recovery rebuilds the engine from the
anchor through :func:`repro.service.snapshot.restore_engine` and
replays only the records with ``seq`` greater than the anchor's — at
most one segment's worth plus the one being written, however long the
daemon has been up.

All file I/O goes through an injectable
:class:`~repro.faults.disk.JournalFileOps` layer so the disk-fault
species in :mod:`repro.faults.disk` (torn write, partial fsync,
``ENOSPC``, duplicated tail) exercise this exact code with no
monkeypatching.  Duplicated tail records — a crashed retry that landed
twice — are deduplicated by sequence number during replay.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from pathlib import Path
from typing import IO, Any, Dict, List, Mapping, Optional, Tuple, Union

from repro import obs
from repro import state as st
from repro.errors import ConfigurationError, ServiceError
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.snapshot import (SNAPSHOT_VERSION, V1_FAULT_DEPTHS,
                                    load_snapshot, restore_engine,
                                    take_snapshot)

if False:  # pragma: no cover - typing only, avoids a runtime cycle
    from repro.core.clock import Clock

__all__ = [
    "ANCHOR_NAME",
    "JournalCorruptError",
    "JournalWriteError",
    "JournalWriter",
    "RealFileOps",
    "SEGMENT_MAGIC",
    "atomic_write_text",
    "open_journal",
    "recover_engine",
]

SEGMENT_MAGIC = b"RUSHWAL1"
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".log"
ANCHOR_NAME = "anchor.json"

#: Frame header: payload length and crc32(payload), little-endian u32s.
_HEADER = struct.Struct("<II")

#: Rotate to a fresh segment once the current one exceeds this size.
DEFAULT_SEGMENT_MAX_BYTES = 256 * 1024

#: Append a decision-digest checkpoint record every N records.
DEFAULT_CHECKPOINT_EVERY = 32


class JournalWriteError(ServiceError):
    """An append could not be made durable (disk full, I/O error).

    Raised *before* the engine applies the event, so the in-memory and
    on-disk states stay consistent and the client may safely retry —
    with an idempotency key, even after an ambiguous failure.
    """

    code = "journal-unavailable"
    status = 503


class JournalCorruptError(ServiceError):
    """The journal cannot be trusted; recovery refuses to proceed.

    Always names the segment ``path`` and byte ``offset`` of the first
    unusable record — a torn *tail* is handled by truncation instead,
    so reaching this error means mid-log damage or replay divergence,
    and the operator must intervene rather than resume silently.
    """

    code = "journal-corrupt"
    status = 500

    def __init__(self, message: str, *, path: Union[str, Path, None] = None,
                 offset: Optional[int] = None) -> None:
        self.path = str(path) if path is not None else None
        self.offset = offset
        where = ""
        if self.path is not None:
            where = f" [{self.path}"
            where += f" @ byte {offset}]" if offset is not None else "]"
        super().__init__(message + where)


class RealFileOps:
    """The production file-op layer: plain ``os``-level durability.

    This class and :meth:`JournalWriter.append` are the only sanctioned
    write paths under ``repro.service`` (lint rule RL015); everything
    else — the anchor included — routes through here so the fsync
    discipline and the disk-fault injection seam cover every byte the
    service persists.  Satisfies
    :class:`repro.faults.disk.JournalFileOps`.
    """

    def open_append(self, path: str) -> IO[bytes]:
        # Unbuffered: ``write`` is one syscall whose count the caller
        # checks, and a refused frame cannot wait in user space for a
        # later append to flush it.
        return open(path, "ab", buffering=0)

    def write(self, fobj: IO[bytes], data: bytes) -> int:
        return fobj.write(data)

    def fsync(self, fobj: IO[bytes]) -> None:
        os.fsync(fobj.fileno())

    def close(self, fobj: IO[bytes]) -> None:
        fobj.close()

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as fobj:
            fobj.write(data)
            fobj.flush()
            os.fsync(fobj.fileno())

    def replace(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def remove(self, path: str) -> None:
        os.remove(path)

    def truncate(self, path: str, size: int) -> None:
        os.truncate(path, size)

    def fsync_dir(self, path: str) -> None:
        """Persist directory entries (new/renamed files); best-effort."""
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - non-POSIX directory handles
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - fs without dir fsync
            pass
        finally:
            os.close(fd)


def atomic_write_text(path: Union[str, Path], text: str, *,
                      file_ops: Optional[Any] = None) -> None:
    """Write-then-rename with an fsync on both file and directory.

    After this returns, a crash leaves either the old content or the
    new — never a torn mixture.  Every service-side whole-file write
    (the journal anchor) goes through here.
    """
    ops = file_ops if file_ops is not None else RealFileOps()
    target = Path(path)
    tmp = target.with_suffix(target.suffix + ".tmp")
    ops.write_bytes(str(tmp), text.encode("utf-8"))
    ops.replace(str(tmp), str(target))
    ops.fsync_dir(str(target.parent))


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------

def _encode_record(seq: int, entry: Mapping[str, Any]) -> bytes:
    body = dict(entry)
    body["seq"] = int(seq)
    payload = json.dumps(body, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_paths(directory: Path) -> List[Path]:
    names = [n for n in os.listdir(directory)
             if n.startswith(SEGMENT_PREFIX) and n.endswith(SEGMENT_SUFFIX)]
    return [directory / n for n in sorted(names)]


def _segment_name(first_seq: int) -> str:
    return f"{SEGMENT_PREFIX}{first_seq:08d}{SEGMENT_SUFFIX}"


def _scan_segments(directory: Path, ops: Any
                   ) -> Tuple[List[Tuple[str, int, Dict[str, Any]]], int]:
    """Parse every record in every segment, in order.

    Returns ``(records, truncated_bytes)`` where each record is
    ``(path, offset, payload_dict)``.  A torn frame at the physical
    tail of the *final* segment is truncated away (that is the one
    place a single-write-plus-fsync discipline can tear); torn or
    corrupt frames anywhere else raise :class:`JournalCorruptError`
    with the byte offset.
    """
    records: List[Tuple[str, int, Dict[str, Any]]] = []
    truncated = 0
    paths = _segment_paths(directory)
    for index, path in enumerate(paths):
        is_last = index == len(paths) - 1
        data = path.read_bytes()
        if len(data) < len(SEGMENT_MAGIC):
            if is_last and SEGMENT_MAGIC.startswith(data):
                truncated += len(data)
                ops.truncate(str(path), 0)
                continue
            raise JournalCorruptError(
                "segment header is damaged", path=path, offset=0)
        if data[:len(SEGMENT_MAGIC)] != SEGMENT_MAGIC:
            raise JournalCorruptError(
                f"bad segment magic {data[:8]!r}", path=path, offset=0)
        offset = len(SEGMENT_MAGIC)
        while offset < len(data):
            frame_end = offset + _HEADER.size
            if frame_end > len(data):
                offset = _truncate_tail(path, data, offset, is_last, ops)
                truncated += len(data) - offset
                break
            length, crc = _HEADER.unpack_from(data, offset)
            frame_end += length
            if frame_end > len(data):
                offset = _truncate_tail(path, data, offset, is_last, ops)
                truncated += len(data) - offset
                break
            payload = data[offset + _HEADER.size:frame_end]
            if zlib.crc32(payload) != crc:
                raise JournalCorruptError(
                    "record CRC mismatch", path=path, offset=offset)
            try:
                record = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise JournalCorruptError(
                    "record payload is not valid JSON despite a valid "
                    "CRC", path=path, offset=offset) from None
            if not isinstance(record, dict) or "seq" not in record:
                raise JournalCorruptError(
                    "record payload is missing its sequence number",
                    path=path, offset=offset)
            records.append((str(path), offset, record))
            offset = frame_end
    return records, truncated


def _truncate_tail(path: Path, data: bytes, offset: int, is_last: bool,
                   ops: Any) -> int:
    if not is_last:
        raise JournalCorruptError(
            "torn record in a non-final segment", path=path, offset=offset)
    ops.truncate(str(path), offset)
    return offset


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------

class JournalWriter:
    """Appends framed records to segment files, one fsync per append.

    The sizes are parameters (no shipped caller sets them) because
    tier-1 can only reach rotation and compaction by shrinking them.
    """

    def __init__(self, directory: Union[str, Path], *,
                 file_ops: Optional[Any] = None,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 auto_compact: bool = True,
                 start_seq: int = 0) -> None:
        if segment_max_bytes < 1024:
            raise ConfigurationError(
                f"segment_max_bytes must be >= 1024, got {segment_max_bytes}")
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        self.directory = Path(directory)
        self.ops = file_ops if file_ops is not None else RealFileOps()
        self.segment_max_bytes = int(segment_max_bytes)
        self.checkpoint_every = int(checkpoint_every)
        self.auto_compact = bool(auto_compact)
        self._seq = int(start_seq)
        self._since_checkpoint = 0
        self._closed = False
        self._segment: Optional[IO[bytes]] = None
        self._segment_path: Optional[Path] = None
        self._segment_size = 0
        self._open_segment()

    @property
    def seq(self) -> int:
        """The sequence number of the last durable record."""
        return self._seq

    def _open_segment(self) -> None:
        path = self.directory / _segment_name(self._seq + 1)
        existing = path.stat().st_size if path.exists() else 0
        segment = self.ops.open_append(str(path))
        if existing == 0:
            try:
                written = self.ops.write(segment, SEGMENT_MAGIC)
                if written != len(SEGMENT_MAGIC):
                    raise OSError("short write of the segment magic")
                self.ops.fsync(segment)
            except OSError:
                # No usable segment: the writer stays without one, so
                # every append is refused until a restart (whose
                # recovery truncates a torn magic away).
                self.ops.close(segment)
                raise
            existing = len(SEGMENT_MAGIC)
        self._segment = segment
        self._segment_path = path
        self._segment_size = existing

    def append(self, entry: Mapping[str, Any]) -> int:
        """THE atomic append: frame, write once, fsync, then return.

        Every byte the journal persists flows through this method (and
        the anchor's :func:`atomic_write_text`) — the write discipline
        lint rule RL015 enforces across ``repro.service``.  An
        ``OSError`` (``ENOSPC``, EIO) or a short write surfaces as the
        retryable :class:`JournalWriteError` *before* the event is
        applied, so a failed append never leaves a half-admitted job —
        and the segment is cut back to its length before the append, so
        the next record (which reuses the seq) never lands behind the
        refused one.
        """
        if self._closed or self._segment is None:
            raise JournalWriteError("journal writer is closed")
        frame = _encode_record(self._seq + 1, entry)
        try:
            written = self.ops.write(self._segment, frame)
            if written != len(frame):
                raise OSError(
                    f"short write ({written} of {len(frame)} bytes)")
            self.ops.fsync(self._segment)
        except OSError as exc:
            self._drop_refused_frame()
            raise JournalWriteError(
                f"journal append failed: {exc}") from exc
        self._seq += 1
        self._segment_size += len(frame)
        self._since_checkpoint += 1
        obs.count("rush_journal_appends_total", 1, str(entry.get("kind", "?")))
        obs.count("rush_journal_fsyncs_total")
        return self._seq

    def _drop_refused_frame(self) -> None:
        """Cut the segment back to its last accepted record.

        If the truncate is refused too, the writer is poisoned — every
        later append fails until a restart, whose recovery truncates a
        torn tail itself — rather than continuing on a dirty segment.
        """
        try:
            self.ops.truncate(str(self._segment_path), self._segment_size)
        except OSError:
            segment, self._segment = self._segment, None
            self.ops.close(segment)

    def note_applied(self, engine: ServiceEngine) -> None:
        """Housekeeping hook the engine calls after applying an event.

        Runs only at a consistent point (everything appended has been
        applied), which is what lets the checkpoint digest describe the
        log prefix exactly and lets compaction anchor on live state.

        The event is already durable and applied, so a failure here is
        never the event's answer: it is counted, raised as a plain
        :class:`ServiceError` the engine keeps for ``/status``, and the
        step retries — a refused checkpoint after the next event, a
        failed compaction (old anchor and every segment still in place)
        at the next rotation.  A failed rotation leaves no segment to
        write to: every later append is refused until a restart.
        """
        step = "checkpoint"
        try:
            if self._since_checkpoint >= self.checkpoint_every:
                self.append({"kind": "checkpoint", "slot": engine.slot,
                             "decisions_digest": engine.decisions_digest()})
                self._since_checkpoint = 0
            if self._segment_size >= self.segment_max_bytes:
                step = "rotate"
                self.rotate()
                if self.auto_compact:
                    step = "compact"
                    self.compact(engine)
        except (OSError, JournalWriteError) as exc:
            obs.count("rush_journal_housekeeping_failures_total", 1, step)
            raise ServiceError(f"journal {step} failed: {exc}") from exc

    def rotate(self) -> None:
        """Close the current segment and start a fresh one."""
        segment, self._segment = self._segment, None
        if segment is not None:
            self.ops.close(segment)
        self._open_segment()
        self.ops.fsync_dir(str(self.directory))

    def compact(self, engine: ServiceEngine) -> None:
        """Anchor the journal at the engine's state; drop covered segments.

        The anchor is the engine's version-5 state snapshot plus
        ``journal_seq``,
        written atomically; every segment other than the one currently
        being written holds only records at or below that seq, so they
        are deleted.  A crash anywhere in this sequence is safe: before
        the rename the old anchor still covers everything, and after it
        leftover segments are skipped by the seq filter during replay.
        """
        snapshot = take_snapshot(engine)
        snapshot["journal_seq"] = self._seq
        # No indent: an indented dump runs json's pure-Python encoder,
        # twice as slow on a long history's anchor.
        blob = "".join([*st.json_pieces(snapshot), "\n"])
        atomic_write_text(self.directory / ANCHOR_NAME, blob,
                          file_ops=self.ops)
        for path in _segment_paths(self.directory):
            if path != self._segment_path:
                self.ops.remove(str(path))
        self.ops.fsync_dir(str(self.directory))

    def close(self) -> None:
        """Flush and close; idempotent (the daemon closes on shutdown)."""
        if self._closed:
            return
        self._closed = True
        if self._segment is not None:
            try:
                self.ops.fsync(self._segment)
            finally:
                self.ops.close(self._segment)
            self._segment = None


# ---------------------------------------------------------------------------
# Recovery
# ---------------------------------------------------------------------------

def recover_engine(directory: Union[str, Path], *,
                   clock: Optional["Clock"] = None,
                   file_ops: Optional[Any] = None
                   ) -> Tuple[ServiceEngine, Dict[str, Any]]:
    """Rebuild an engine from a journal directory, digest-verified.

    Restores the anchor snapshot (itself digest-verified by
    :func:`~repro.service.snapshot.restore_engine`), then replays only
    the WAL records past the anchor's ``journal_seq``, in sequence order:
    every engine event — ``tick`` included — goes through
    :meth:`ServiceEngine.apply`, the same transition the live path and
    the anchor replay use, and each ``checkpoint`` record must match
    the rebuilt decision digest exactly.  Returns the engine
    plus recovery stats (``anchor_seq``, ``last_seq``, ``applied``,
    ``deduped``, ``skipped``, ``truncated_bytes``, ``segments``,
    ``checkpoints``, ``slot``, ``anchor_version``).
    """
    dirpath = Path(directory)
    ops = file_ops if file_ops is not None else RealFileOps()
    tracer = obs.get_tracer()
    with tracer.span("journal.recover", directory=str(dirpath)) as span:
        records, truncated = _scan_segments(dirpath, ops)
        anchor_path = dirpath / ANCHOR_NAME
        if not anchor_path.exists():
            if records:
                raise JournalCorruptError(
                    "journal has records but no anchor snapshot",
                    path=records[0][0], offset=records[0][1])
            raise JournalCorruptError(
                f"no journal found in {dirpath}", path=anchor_path)
        anchor = load_snapshot(anchor_path)
        anchor_seq = anchor.get("journal_seq", 0)
        if not isinstance(anchor_seq, int) or isinstance(anchor_seq, bool) \
                or anchor_seq < 0:
            raise JournalCorruptError(
                "anchor journal_seq must be an integer >= 0, got "
                f"{anchor_seq!r}", path=anchor_path)
        if anchor.get("version") == 1:
            # Only a v1 release appends behind a v1 anchor (open_journal
            # re-anchors before it appends): these depths count four rungs.
            for path, offset, record in records:
                if record.get("kind") == "solver_fault" \
                        and int(record["seq"]) > anchor_seq:
                    raise JournalCorruptError(
                        f"this journal {V1_FAULT_DEPTHS}", path=path,
                        offset=offset)
        engine = restore_engine(anchor, clock=clock)

        applied = deduped = skipped = checkpoints = 0
        prev_seq = anchor_seq
        prev_record: Optional[Dict[str, Any]] = None
        for path, offset, record in records:
            seq = int(record["seq"])
            if seq <= anchor_seq:
                skipped += 1  # compaction crashed before segment removal
                continue
            if seq == prev_seq and prev_record is not None:
                if record == prev_record:
                    deduped += 1  # a retried append that landed twice
                    continue
                raise JournalCorruptError(
                    f"conflicting duplicate of record seq {seq}",
                    path=path, offset=offset)
            if seq != prev_seq + 1:
                raise JournalCorruptError(
                    f"sequence gap: expected seq {prev_seq + 1}, "
                    f"found {seq}", path=path, offset=offset)
            _apply_record(engine, record, path, offset)
            if record.get("kind") == "checkpoint":
                checkpoints += 1
            prev_seq = seq
            prev_record = record
            applied += 1

        if truncated:
            obs.count("rush_journal_recovery_truncated_bytes", truncated)
        stats = {
            "anchor_seq": anchor_seq,
            "last_seq": prev_seq,
            "applied": applied,
            "deduped": deduped,
            "skipped": skipped,
            "checkpoints": checkpoints,
            "truncated_bytes": truncated,
            "segments": len(_segment_paths(dirpath)),
            "slot": engine.slot,
            "anchor_version": anchor.get("version"),
        }
        span.note(**stats)
    return engine, stats


def _apply_record(engine: ServiceEngine, record: Mapping[str, Any],
                  path: str, offset: int) -> None:
    kind = record.get("kind")
    if kind == "checkpoint":
        slot = record.get("slot")
        digest = record.get("decisions_digest")
        if slot != engine.slot or digest != engine.decisions_digest():
            raise JournalCorruptError(
                "checkpoint mismatch: replay diverged from the "
                "journaled decision stream", path=path, offset=offset)
        return
    # Everything else is an engine event.  The WAL spells its ticks
    # out, so — unlike the anchor, which implies them — an event that
    # is not due exactly now means a tick record went missing.
    try:
        due = int(record["due"])
    except (KeyError, TypeError, ValueError):
        raise JournalCorruptError(
            f"{kind} record without a due slot",
            path=path, offset=offset) from None
    if due != engine.slot:
        raise JournalCorruptError(
            f"{kind} record due at slot {due} replayed at slot "
            f"{engine.slot}: the tick records do not add up",
            path=path, offset=offset)
    try:
        engine.apply({k: v for k, v in record.items() if k != "seq"})
    except (ServiceError, ConfigurationError) as exc:  # e.g. a bad depth
        raise JournalCorruptError(
            f"journaled {kind} no longer replays: {exc}",
            path=path, offset=offset) from exc


def open_journal(directory: Union[str, Path],
                 config: Optional[ServiceConfig] = None, *,
                 clock: Optional["Clock"] = None,
                 file_ops: Optional[Any] = None,
                 segment_max_bytes: int = DEFAULT_SEGMENT_MAX_BYTES,
                 checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                 auto_compact: bool = True
                 ) -> Tuple[ServiceEngine, JournalWriter]:
    """Open (or create) a journal directory and return (engine, writer).

    An existing journal is recovered — the given ``config`` must then
    match the journaled one, because replaying under different capacity
    or policy would silently re-derive different decisions.  A fresh
    directory needs a ``config`` and is initialized with an anchor at
    seq 0.  The returned engine has the writer attached: every
    subsequent event is appended and fsynced before it is applied.
    """
    dirpath = Path(directory)
    os.makedirs(dirpath, exist_ok=True)
    ops = file_ops if file_ops is not None else RealFileOps()

    has_anchor = (dirpath / ANCHOR_NAME).exists()
    if not has_anchor:
        # A crash during first-time init can leave record-less segments
        # (magic only, or a torn first record): re-initialize.  Any
        # *record* without an anchor is real data loss — refuse.
        records, _ = _scan_segments(dirpath, ops)
        if records:
            raise JournalCorruptError(
                "journal has records but no anchor snapshot",
                path=records[0][0], offset=records[0][1])

    stats: Dict[str, Any] = {}
    if has_anchor:
        engine, stats = recover_engine(dirpath, clock=clock, file_ops=ops)
        if config is not None \
                and engine.config.to_dict() != config.to_dict():
            raise ConfigurationError(
                f"journal at {dirpath} was created under a different "
                "service config; restart with the original flags or "
                "point --journal-dir at a fresh directory")
        start_seq = int(stats["last_seq"])
    else:
        if config is None:
            raise ConfigurationError(
                f"no journal at {dirpath} and no service config given "
                "to create one")
        engine = ServiceEngine(config, clock=clock)
        start_seq = 0

    writer = JournalWriter(
        dirpath, file_ops=ops, segment_max_bytes=segment_max_bytes,
        checkpoint_every=checkpoint_every, auto_compact=auto_compact,
        start_seq=start_seq)
    if stats.get("anchor_version") != SNAPSHOT_VERSION:
        # A fresh journal's seq-0 anchor, or a recovered older journal's
        # new one: no record this release appends sits behind an older
        # anchor.
        writer.compact(engine)
    engine.wal = writer
    return engine, writer
