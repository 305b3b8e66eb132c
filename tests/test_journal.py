"""The durability battery for :mod:`repro.service.journal`.

The property under test is the one the write-ahead log exists for:

    For every crash point and every seeded disk-fault species, a
    restart either recovers the exact pre-crash state (identical
    decision stream, no lost acked job, no duplicate admission) or
    fails loudly with :class:`JournalCorruptError` naming the corrupt
    byte offset.  Never silent loss.

The crash harness drives a fixed submit/cancel/tick script against a
journaled engine through :class:`~repro.faults.disk.FaultyFileOps`,
which kills the "process" at an exact write operation; recovery then
re-opens the directory with real file ops (as ``rush serve
--journal-dir`` would) and the script is re-driven from the top with
idempotency keys — retried submits must dedup, and the final decision
digest must equal the crash-free reference run's.  The exhaustive sweep
(every write op × every species × single- and multi-segment layouts)
carries the ``slow`` marker; a strided subset and a hypothesis-driven
sampler run in the fast lane.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import ConfigurationError, JobStateError, ReproError
from repro.faults import DISK_FAULT_SPECIES, FaultyFileOps, SimulatedCrashError
from repro.service import (JournalCorruptError, JournalWriteError,
                           ServiceConfig, open_journal, recover_engine)
from repro.service.journal import (SEGMENT_MAGIC, JournalWriter, RealFileOps,
                                   _encode_record)

CONFIG = ServiceConfig(capacity=3, policy="fifo", seed=0)

#: Journal tuning for the two layouts under test: one segment for the
#: whole run, and a deliberately tiny segment so the run rotates and
#: compacts mid-script.
SINGLE_SEGMENT = {"segment_max_bytes": 1 << 20, "checkpoint_every": 5}
MULTI_SEGMENT = {"segment_max_bytes": 1024, "checkpoint_every": 5}

#: The externally-visible event script every run drives.  Tick targets
#: are re-aligned on resume via the reference run's slot trace, so a
#: replayed prefix is never re-applied.
SCRIPT = (
    ("submit", 0), ("tick",), ("submit", 1), ("submit", 2), ("tick",),
    ("cancel", 1), ("tick",), ("submit", 3), ("tick",), ("tick",),
    ("submit", 4), ("tick",), ("tick",), ("tick",), ("tick",), ("tick",),
    ("tick",), ("tick",),
)


def _payload(index):
    return {"task_durations": [1 + index % 3, 2], "budget": 40.0,
            "idempotency_key": f"key-{index}"}


def _drive(engine, slots_after=None):
    """Run SCRIPT; returns (job ids by script index, slot after each op).

    With ``slots_after`` (a reference run's slot trace) the ticks only
    advance the clock up to the reference slot — the resume mode, where
    some prefix of the script was already replayed from the journal.
    """
    ids = {}
    trace = []
    for index, op in enumerate(SCRIPT):
        if op[0] == "submit":
            ids[op[1]] = engine.submit(_payload(op[1]))["job_id"]
        elif op[0] == "cancel":
            try:
                engine.cancel(ids[op[1]])
            except JobStateError:
                pass  # the journaled cancel already went through
        else:
            target = (slots_after[index] if slots_after is not None
                      else engine.slot + 1)
            while engine.slot < target:
                engine.tick()
        trace.append(engine.slot)
    return ids, trace


def _reference(directory, journal_kw, file_ops=None):
    """A crash-free scripted run; returns its invariants."""
    engine, _writer = open_journal(directory, CONFIG, file_ops=file_ops,
                                   **journal_kw)
    ids, trace = _drive(engine)
    digest = engine.decisions_digest()
    jobs = {job["job_id"]: job["state"] for job in engine.list_jobs()}
    engine.close()
    return ids, trace, digest, jobs


def _crash_then_recover(directory, journal_kw, species, at_op, seed, trace,
                        reference_digest, reference_jobs):
    """One sweep cell: inject, crash (maybe), restart, re-drive, compare."""
    ops = FaultyFileOps(RealFileOps(), species=species, at_op=at_op,
                        seed=seed)
    try:
        engine, _writer = open_journal(directory, CONFIG, file_ops=ops,
                                       **journal_kw)
        _drive(engine)
        engine.close()
    except SimulatedCrashError:
        pass  # the process "died"; the directory is the crash state

    # Restart exactly as `rush serve --journal-dir` would, then re-drive
    # the script: replayed submits dedup on their keys, replayed ticks
    # are skipped by the slot alignment.
    engine, _writer = open_journal(directory, CONFIG, **journal_kw)
    _drive(engine, slots_after=trace)
    assert engine.decisions_digest() == reference_digest, (
        f"decision stream diverged after {species} at write {at_op}")
    jobs = {job["job_id"]: job["state"] for job in engine.list_jobs()}
    assert jobs == reference_jobs, (
        f"job set diverged after {species} at write {at_op}")
    engine.close()


def _count_writes(tmp_path, journal_kw):
    """Write ops in a crash-free run — the sweep's crash-point domain."""
    counter = FaultyFileOps(RealFileOps(), species="crash", at_op=1 << 30)
    _reference(tmp_path / "count", journal_kw, file_ops=counter)
    return counter.writes


# ---------------------------------------------------------------------------
# The crash-point sweeps
# ---------------------------------------------------------------------------

CRASHING_SPECIES = tuple(s for s in DISK_FAULT_SPECIES if s != "enospc")


@pytest.mark.slow
@pytest.mark.parametrize("journal_kw",
                         [SINGLE_SEGMENT, MULTI_SEGMENT],
                         ids=["single-segment", "multi-segment"])
def test_crash_point_sweep_exhaustive(tmp_path, journal_kw):
    """Kill at EVERY journaled write × every crash species: recovery exact."""
    total = _count_writes(tmp_path, journal_kw)
    _ids, trace, digest, jobs = _reference(tmp_path / "ref", journal_kw)
    for species in CRASHING_SPECIES:
        for at_op in range(1, total + 1):
            _crash_then_recover(
                tmp_path / f"{species}-{at_op}", journal_kw, species,
                at_op, at_op, trace, digest, jobs)


def test_crash_point_sweep_fast(tmp_path):
    """The CI-lane subset: strided crash points, both tearing species."""
    journal_kw = MULTI_SEGMENT
    total = _count_writes(tmp_path, journal_kw)
    _ids, trace, digest, jobs = _reference(tmp_path / "ref", journal_kw)
    for species in ("torn_write", "dup_tail"):
        for at_op in range(1, total + 1, 5):
            _crash_then_recover(
                tmp_path / f"{species}-{at_op}", journal_kw, species,
                at_op, at_op, trace, digest, jobs)


@settings(max_examples=12, deadline=None)
@given(species=st.sampled_from(CRASHING_SPECIES),
       fraction=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=999))
def test_crash_point_property(tmp_path_factory, species, fraction, seed):
    """Hypothesis sampler over (species × crash point × tear seed)."""
    tmp_path = tmp_path_factory.mktemp("crash-prop")
    journal_kw = MULTI_SEGMENT
    total = _count_writes(tmp_path, journal_kw)
    at_op = 1 + int(fraction * (total - 1))
    _ids, trace, digest, jobs = _reference(tmp_path / "ref", journal_kw)
    _crash_then_recover(tmp_path / "run", journal_kw, species, at_op,
                        seed, trace, digest, jobs)


# ---------------------------------------------------------------------------
# Loud failure: corruption names the byte offset
# ---------------------------------------------------------------------------

def _first_segment(directory):
    return sorted(Path(directory).glob("wal-*.log"))[0]


def test_mid_log_corruption_is_loud_and_names_the_offset(tmp_path):
    _reference(tmp_path, SINGLE_SEGMENT)
    segment = _first_segment(tmp_path)
    blob = bytearray(segment.read_bytes())
    # Flip one payload byte in the FIRST record: a full frame whose CRC
    # cannot match — never a tolerable torn tail.
    offset = len(SEGMENT_MAGIC)
    blob[offset + 8 + 2] ^= 0xFF
    segment.write_bytes(bytes(blob))
    with pytest.raises(JournalCorruptError) as exc_info:
        recover_engine(tmp_path)
    err = exc_info.value
    assert err.offset == offset
    assert err.path == str(segment)
    assert f"byte {offset}" in str(err)
    assert err.status == 500 and err.code == "journal-corrupt"
    # The serve path refuses identically: loud, typed, non-zero exit.
    with pytest.raises(JournalCorruptError):
        open_journal(tmp_path, CONFIG)


def test_sequence_gap_is_corrupt(tmp_path):
    engine, writer = open_journal(tmp_path, CONFIG, **SINGLE_SEGMENT)
    engine.submit(_payload(0))
    last_seq = writer.seq
    engine.close()
    segment = sorted(Path(tmp_path).glob("wal-*.log"))[-1]
    with open(segment, "ab") as handle:
        handle.write(_encode_record(last_seq + 3, {"kind": "tick", "due": 0}))
    with pytest.raises(JournalCorruptError, match="sequence gap"):
        recover_engine(tmp_path)


def test_torn_tail_is_truncated_not_fatal(tmp_path):
    _ids, _trace, digest, _jobs = _reference(tmp_path, SINGLE_SEGMENT)
    segment = sorted(Path(tmp_path).glob("wal-*.log"))[-1]
    with open(segment, "ab") as handle:
        handle.write(struct.pack("<II", 4096, 0)[:5])  # half a header
    engine, stats = recover_engine(tmp_path)
    assert stats["truncated_bytes"] == 5
    assert engine.decisions_digest() == digest
    engine.close()


def test_duplicated_tail_record_is_deduplicated(tmp_path):
    _ids, _trace, digest, _jobs = _reference(tmp_path, SINGLE_SEGMENT)
    segment = sorted(Path(tmp_path).glob("wal-*.log"))[-1]
    blob = segment.read_bytes()
    # Re-append the final frame verbatim: the classic crashed-retry dup.
    length, _crc = struct.unpack_from("<II", blob, _last_frame_offset(blob))
    frame = blob[_last_frame_offset(blob):]
    with open(segment, "ab") as handle:
        handle.write(frame)
    engine, stats = recover_engine(tmp_path)
    assert stats["deduped"] == 1
    assert engine.decisions_digest() == digest
    engine.close()


def _last_frame_offset(blob):
    offset = len(SEGMENT_MAGIC)
    last = offset
    while offset < len(blob):
        length, _crc = struct.unpack_from("<II", blob, offset)
        last = offset
        offset += 8 + length
    return last


def test_records_without_anchor_refuse_to_guess(tmp_path):
    _reference(tmp_path, SINGLE_SEGMENT)
    (Path(tmp_path) / "anchor.json").unlink()
    with pytest.raises(JournalCorruptError, match="no anchor"):
        open_journal(tmp_path, CONFIG)


# ---------------------------------------------------------------------------
# Writer semantics
# ---------------------------------------------------------------------------

def test_enospc_is_retryable_and_state_stays_consistent(tmp_path):
    # Write ops on a fresh journal: 1 = segment magic, 2 = init anchor,
    # 3 = first submit's record — so op 4 is the second submit's.
    ops = FaultyFileOps(RealFileOps(), species="enospc", at_op=4)
    engine, _writer = open_journal(tmp_path, CONFIG, file_ops=ops,
                                   auto_compact=False)
    engine.submit(_payload(0))
    registry = engine.registry
    before = (registry.status(), dict(registry._owner))
    with pytest.raises(JournalWriteError) as exc_info:
        engine.submit(dict(_payload(1), job_id="refused-once"))
    assert exc_info.value.status == 503
    assert exc_info.value.code == "journal-unavailable"
    # The failed admission left nothing behind — no tenant counter, no
    # owner entry — so the same id and key retry clean and count once.
    assert (registry.status(), dict(registry._owner)) == before
    assert len(engine.list_jobs()) == 1
    retry = engine.submit(dict(_payload(1), job_id="refused-once"))
    assert "deduplicated" not in retry
    assert registry.status()["default"]["submitted_total"] == 2
    assert registry.status()["default"]["live_jobs"] == 2
    engine.tick(12)
    digest = engine.decisions_digest()
    engine.close()
    engine, _stats = recover_engine(tmp_path)
    assert engine.decisions_digest() == digest
    engine.close()


class _RefuseOnce(RealFileOps):
    """Real file ops whose next armed ``write`` or ``fsync`` fails once,
    the way a full or failing disk does for a frame under a page."""

    def __init__(self, mode):
        self.mode = mode
        self.armed = False

    def _fire(self):
        fire, self.armed = self.armed, False
        return fire

    def write(self, fobj, data):
        if self.mode == "short-write" and self._fire():
            return super().write(fobj, data[:len(data) // 2])
        return super().write(fobj, data)

    def fsync(self, fobj):
        if self.mode == "fsync" and self._fire():
            raise OSError(28, "No space left on device")
        super().fsync(fobj)


@pytest.mark.parametrize("mode", ["fsync", "short-write"])
def test_refused_append_leaves_no_bytes_behind(tmp_path, mode):
    """A refused append must not share the segment with the next one:
    the frame it wrote (all of it before a failed fsync, half of it on a
    short write) would carry the seq the next accepted record reuses."""
    ops = _RefuseOnce(mode)
    engine, _writer = open_journal(tmp_path, CONFIG, file_ops=ops,
                                   auto_compact=False)
    engine.submit(dict(_payload(0), job_id="a"))
    segment = _first_segment(tmp_path)
    before = segment.read_bytes()
    ops.armed = True
    with pytest.raises(JournalWriteError) as exc_info:
        engine.submit(dict(_payload(1), job_id="refused"))
    assert exc_info.value.status == 503
    assert segment.read_bytes() == before
    assert [job["job_id"] for job in engine.list_jobs()] == ["a"]
    engine.tick()
    engine.submit(dict(_payload(2), job_id="b"))
    digest = engine.decisions_digest()
    engine.close()
    engine, _stats = recover_engine(tmp_path)
    assert [job["job_id"] for job in engine.list_jobs()] == ["a", "b"]
    assert engine.decisions_digest() == digest
    engine.close()


def test_failed_rollback_poisons_the_writer(tmp_path):
    """If the refused frame cannot be cut away either, no later append
    may land behind it: the writer refuses until restart."""
    class Ops(_RefuseOnce):
        def truncate(self, path, size):
            raise OSError(5, "Input/output error")

    ops = Ops("fsync")
    writer = JournalWriter(tmp_path, file_ops=ops, **SINGLE_SEGMENT)
    writer.append({"kind": "tick", "due": 0})
    ops.armed = True
    with pytest.raises(JournalWriteError, match="append failed"):
        writer.append({"kind": "tick", "due": 1})
    with pytest.raises(JournalWriteError, match="closed"):
        writer.append({"kind": "tick", "due": 1})
    assert writer.seq == 1
    writer.close()


def test_idempotency_key_dedup_is_pinned(tmp_path):
    engine, _writer = open_journal(tmp_path, CONFIG)
    first = engine.submit(_payload(0))
    again = engine.submit(_payload(0))
    assert again["deduplicated"] is True
    assert again["job_id"] == first["job_id"]
    assert len(engine.list_jobs()) == 1
    engine.close()
    # The key ledger survives recovery: a retry after restart dedups too.
    engine, _stats = recover_engine(tmp_path)
    after = engine.submit(_payload(0))
    assert after["deduplicated"] is True
    assert after["job_id"] == first["job_id"]
    assert len(engine.list_jobs()) == 1
    engine.close()


def test_compaction_drops_covered_segments(tmp_path):
    engine, writer = open_journal(tmp_path, CONFIG, **MULTI_SEGMENT)
    ids, _trace = _drive(engine)
    segments = sorted(Path(tmp_path).glob("wal-*.log"))
    assert len(segments) == 1, "rotation should have compacted the rest"
    anchor = json.loads((Path(tmp_path) / "anchor.json").read_text())
    assert anchor["journal_seq"] > 0
    digest = engine.decisions_digest()
    engine.close()
    engine, stats = recover_engine(tmp_path)
    assert engine.decisions_digest() == digest
    engine.close()


def test_open_journal_rejects_a_different_config(tmp_path):
    _reference(tmp_path, SINGLE_SEGMENT)
    other = ServiceConfig(capacity=9, policy="fifo", seed=0)
    with pytest.raises(ConfigurationError, match="different service config"):
        open_journal(tmp_path, other)


def test_anchor_with_a_retired_scheduler_option_fails_loudly(tmp_path):
    """An anchor written while the process-pool presolve was still a
    scheduler option must not be replayed under different planner
    wiring, nor die with a raw TypeError: recovery names the key."""
    retired = "parallel" + "_workers"  # in halves: must not grep in the tree
    config = ServiceConfig(capacity=3, policy="rush", seed=0)
    engine, _writer = open_journal(tmp_path, config)
    engine.close()
    anchor_path = Path(tmp_path) / "anchor.json"
    anchor = json.loads(anchor_path.read_text())
    # ... and neither must a key that names a Python-object parameter,
    # which would pass a name check and then fail every tick.
    for key in (retired, "estimator_factory", "warm_start", "incremental",
                "work_conserving", "compensate_runtime", "wcde_cache_size",
                "default_prior_runtime", "plan_time_budget"):
        anchor["config"]["scheduler_options"] = {key: 2}
        anchor_path.write_text(json.dumps(anchor))
        with pytest.raises(ReproError, match=(
                f"unknown scheduler option '{key}'.*accepted: delta, "
                "theta, tolerance$")):
            recover_engine(tmp_path)
        with pytest.raises(ReproError, match=f"'{key}'"):
            open_journal(tmp_path, config)


def test_anchor_without_a_digest_fails_as_a_digest_mismatch_does(tmp_path):
    """Recovery restores the anchor through ``restore_engine``: an anchor
    whose digest was stripped is refused with the same typed error as
    one whose digest does not match the replay."""
    engine, writer = open_journal(tmp_path, CONFIG, **SINGLE_SEGMENT)
    _drive(engine)
    writer.compact(engine)  # an anchor with events and grants to verify
    engine.close()
    anchor_path = Path(tmp_path) / "anchor.json"
    anchor = json.loads(anchor_path.read_text())
    assert anchor["state"]["sim"]["decisions"], \
        "the anchor must hold grants to verify"

    errors = []
    for digest in ("0" * 64, None):
        tampered = dict(anchor)
        if digest is None:
            del tampered["decisions_digest"]
        else:
            tampered["decisions_digest"] = digest
        anchor_path.write_text(json.dumps(tampered))
        with pytest.raises(ReproError) as err:
            recover_engine(tmp_path)
        errors.append(err.value)
        with pytest.raises(type(err.value)):
            open_journal(tmp_path, CONFIG)
    mismatch, missing = errors
    assert type(missing) is type(mismatch)
    assert (missing.code, missing.status) == (mismatch.code, mismatch.status)
    assert "no decisions_digest" in str(missing)


@pytest.mark.parametrize("seq", ["x", None, [1], 1.5, True, -1])
def test_malformed_anchor_journal_seq_is_a_typed_refusal(tmp_path, capsys,
                                                         seq):
    """``anchor.json`` is input from outside the program: a
    ``journal_seq`` that is not a plain integer >= 0 is refused with
    :class:`JournalCorruptError` naming the anchor — never a raw
    ``ValueError``/``TypeError``, and never truncated to a seq."""
    from repro.cli import main

    engine, writer = open_journal(tmp_path, CONFIG, **SINGLE_SEGMENT)
    _drive(engine)
    writer.compact(engine)
    engine.close()
    anchor_path = Path(tmp_path) / "anchor.json"
    anchor = json.loads(anchor_path.read_text())
    anchor["journal_seq"] = seq
    anchor_path.write_text(json.dumps(anchor))

    with pytest.raises(JournalCorruptError, match="journal_seq") as err:
        recover_engine(tmp_path)
    assert err.value.path == str(anchor_path)
    assert main(["serve", "--manual", "--port", "0",
                 "--journal-dir", str(tmp_path)]) == 2
    assert "error: " in capsys.readouterr().err


def test_fresh_directory_requires_a_config(tmp_path):
    with pytest.raises(ConfigurationError, match="no journal"):
        open_journal(tmp_path / "empty")


def test_closed_writer_refuses_appends(tmp_path):
    writer = JournalWriter(tmp_path, **SINGLE_SEGMENT)
    writer.append({"kind": "tick", "due": 0})
    writer.close()
    writer.close()  # idempotent
    with pytest.raises(JournalWriteError, match="closed"):
        writer.append({"kind": "tick", "due": 1})


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

def test_journal_metrics_and_recovery_span(tmp_path):
    handle = obs.enable(trace=True, metrics=True, ledger=False)
    try:
        _reference(tmp_path, SINGLE_SEGMENT)
        text = handle.metrics.render_prometheus()
        assert "rush_journal_appends_total" in text
        assert "rush_journal_fsyncs_total" in text
        # Tear the tail so the truncation counter fires during recovery.
        segment = sorted(Path(tmp_path).glob("wal-*.log"))[-1]
        with open(segment, "ab") as fh:
            fh.write(b"\x99\x00\x00")
        engine, stats = recover_engine(tmp_path)
        engine.close()
        assert stats["truncated_bytes"] == 3
        text = handle.metrics.render_prometheus()
        assert "rush_journal_recovery_truncated_bytes" in text
        assert any(span.name == "journal.recover"
                   for span in handle.tracer.spans)
    finally:
        obs.reset()


# ---------------------------------------------------------------------------
# Housekeeping after an applied event: contained, counted, retried
# ---------------------------------------------------------------------------

NO_CHECKPOINTS = 1 << 30

#: step -> (journal tuning, which write *within one event* to refuse).
#: An event's first write is its own append; what follows is upkeep —
#: the checkpoint append, or (no checkpoints) rotation's magic write and
#: then compaction's anchor write.
HOUSEKEEPING_FAULTS = {
    "checkpoint": ({"segment_max_bytes": 1 << 20, "checkpoint_every": 2}, 2),
    "rotate": ({"segment_max_bytes": 1024,
                "checkpoint_every": NO_CHECKPOINTS}, 2),
    "compact": ({"segment_max_bytes": 1024,
                 "checkpoint_every": NO_CHECKPOINTS}, 3),
}


@pytest.mark.parametrize("step", sorted(HOUSEKEEPING_FAULTS))
def test_failed_housekeeping_never_answers_an_applied_event(tmp_path, step):
    """ENOSPC on the checkpoint append, on rotation's magic write or on
    compaction's anchor write strikes *after* the event is durable and
    applied: the request must return the job's status (an error would
    make the client's retry double-admit), the failure is counted and
    kept for ``/status``, and a recovery from the directory agrees."""
    journal_kw, nth_write = HOUSEKEEPING_FAULTS[step]
    ops = FaultyFileOps(RealFileOps(), species="enospc", at_op=1 << 30)
    handle = obs.enable(trace=False, metrics=True, ledger=False)
    try:
        engine, writer = open_journal(tmp_path, CONFIG, file_ops=ops,
                                      **journal_kw)
        anchor_before = (tmp_path / "anchor.json").read_bytes()
        accepted = []
        while not ops.fired:
            assert len(accepted) < 40, "the armed write never happened"
            ops.at_op = ops.writes + nth_write  # re-armed for every event
            status = engine.submit({"task_durations": [2, 1],
                                    "budget": 40.0})
            accepted.append(status["job_id"])
            assert status["state"] == "accepted"
        ops.at_op = 1 << 30
        assert engine.housekeeping_failure.startswith(
            f"journal {step} failed")
        assert (f'rush_journal_housekeeping_failures_total{{step="{step}"}} 1'
                in handle.metrics.render_prometheus())
        assert [j["job_id"] for j in engine.list_jobs()] == sorted(accepted)

        if step == "rotate":
            # No segment to write to: refused *before* apply from now on.
            with pytest.raises(JournalWriteError):
                engine.tick()
            assert engine.slot == 0
        else:
            if step == "compact":
                # The old anchor and every segment are still in place...
                assert (tmp_path / "anchor.json").read_bytes() == anchor_before
                assert len(list(tmp_path.glob("wal-*.log"))) == 2
            seq = writer.seq
            engine.tick()
            if step == "checkpoint":  # ...and the refused step is retried,
                assert writer.seq == seq + 2
            engine.tick(6)
            if step == "compact":  # the compaction at the next rotation.
                for _ in range(40):
                    engine.tick()
                    if len(list(tmp_path.glob("wal-*.log"))) == 1:
                        break
                assert (tmp_path / "anchor.json").read_bytes() != anchor_before
                assert len(list(tmp_path.glob("wal-*.log"))) == 1
        digest = engine.decisions_digest()
        jobs = engine.list_jobs()
        engine.close()
    finally:
        obs.reset()
    recovered, _stats = recover_engine(tmp_path)
    assert recovered.decisions_digest() == digest
    assert recovered.list_jobs() == jobs
    recovered.close()
