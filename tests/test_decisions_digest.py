"""The rolling decision digest is the whole-stream digest, everywhere.

``ServiceEngine.decisions_digest()`` folds each decision into a
:class:`~repro.service.protocol.RollingDigest` once instead of
re-serialising the whole stream on every read.  Its value must stay
``canonical_digest`` of the stream — the checkpoints, snapshots and
golden journals written before it carry that value — so these
properties compare the two on every read: between requests within a
slot, at every slot boundary, under the chaos library's fault plan,
cancels, failure retries, idempotent resubmits and injected solver
faults, and across ``restore_engine`` and ``recover_engine``, where the
recovered engine's digest must continue from the replayed stream.
"""

from __future__ import annotations

import hashlib
import json
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ServiceError
from repro.faults import default_chaos_plan
from repro.service import (ServiceConfig, ServiceEngine, canonical_digest,
                           open_journal, recover_engine, restore_engine,
                           take_snapshot)
from repro.service.protocol import RollingDigest

MORE_TICKS = 6  # slots every rebuilt engine keeps running for


def whole_stream(engine: ServiceEngine) -> str:
    """The definition: one canonical digest over the full stream."""
    return canonical_digest([list(d) for d in engine.sim.decisions])


def assert_rolling_is_whole(engine: ServiceEngine) -> str:
    digest = engine.decisions_digest()
    assert digest == whole_stream(engine)
    return digest


def test_the_empty_stream_is_the_digest_of_an_empty_list():
    engine = ServiceEngine(ServiceConfig(capacity=2, policy="rush"))
    assert engine.sim.decisions == []
    empty = hashlib.sha256(b"[]").hexdigest()
    assert engine.decisions_digest() == canonical_digest([]) == empty
    assert RollingDigest().hexdigest() == empty
    engine.tick(3)  # slots pass, nothing is granted
    assert engine.decisions_digest() == empty


rows = st.tuples(st.integers(0, 10 ** 6), st.just("grant"),
                 st.text(min_size=1, max_size=6))


@given(items=st.lists(rows, max_size=30), cuts=st.lists(st.integers(0, 30)))
def test_any_batching_gives_the_canonical_digest_of_every_prefix(items, cuts):
    """Non-ASCII ids and any split of the stream into batches included."""
    digest = RollingDigest()
    folded = 0
    for cut in sorted({min(c, len(items)) for c in cuts} | {len(items)}):
        digest.extend(items[folded:cut])
        folded = cut
        assert digest.items == cut
        assert digest.hexdigest() == canonical_digest(
            [list(row) for row in items[:cut]])
        assert digest.hexdigest() == hashlib.sha256(json.dumps(
            [list(row) for row in items[:cut]],
            separators=(",", ":")).encode()).hexdigest()


# ---------------------------------------------------------------------------
# A chaos-driven engine: every read equals the whole-stream digest

ops = st.lists(st.one_of(
    st.tuples(st.just("submit"),
              st.lists(st.integers(1, 4), min_size=1, max_size=3),
              st.sampled_from([0.0, 0.3]),  # failure_prob: retried tasks
              st.booleans()),               # with an idempotency key
    st.tuples(st.just("resubmit"), st.integers(0, 10)),
    st.tuples(st.just("cancel"), st.integers(0, 10)),
    st.tuples(st.just("fault"), st.integers(1, 2)),
    st.tuples(st.just("tick"), st.integers(1, 3)),
), min_size=1, max_size=25)


def _drive(engine: ServiceEngine, script) -> None:
    keys = []
    for op in script:
        kind = op[0]
        if kind == "submit":
            _, durations, failure_prob, keyed = op
            payload = {"task_durations": durations, "budget": 12.0,
                       "failure_prob": failure_prob}
            if keyed:
                payload["idempotency_key"] = f"k{len(keys)}"
                keys.append(payload)
            engine.submit(payload)
        elif kind == "resubmit" and keys:
            status = engine.submit(keys[op[1] % len(keys)])
            assert status["deduplicated"] is True
        elif kind == "cancel":
            ids = engine.registry.job_ids()
            if ids:
                try:
                    engine.cancel(ids[op[1] % len(ids)])
                except ServiceError:
                    pass  # already completed or cancelled
        elif kind == "fault" and engine.scheduler.has_solver:
            engine.inject_solver_fault(op[1])
        elif kind == "tick":
            for _ in range(op[1]):
                engine.tick()
                assert_rolling_is_whole(engine)
        assert_rolling_is_whole(engine)  # between requests within a slot


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(policy=st.sampled_from(["rush", "fifo"]),
       seed=st.integers(0, 2 ** 16),
       intensity=st.sampled_from([0.0, 1.0, 3.0]),
       script=ops)
def test_rolling_digest_is_the_whole_stream_digest_live_and_recovered(
        policy, seed, intensity, script):
    config = ServiceConfig(
        capacity=3, policy=policy, seed=seed,
        fault_spec=default_chaos_plan(seed=seed,
                                      intensity=intensity).to_spec())
    with tempfile.TemporaryDirectory(prefix="rush-digest-") as directory:
        # checkpoint_every=2: recovery verifies many rolling reads.
        live, _writer = open_journal(directory, config, checkpoint_every=2)
        _drive(live, script)
        snapshot = json.loads(json.dumps(take_snapshot(live)))
        live.close()
        recovered, stats = recover_engine(directory)
    restored = restore_engine(snapshot)
    digest = live.decisions_digest()
    assert stats["slot"] == live.slot
    for rebuilt in (restored, recovered):
        assert rebuilt.slot == live.slot
        assert assert_rolling_is_whole(rebuilt) == digest
    for _ in range(MORE_TICKS):
        for engine in (live, restored, recovered):
            engine.tick()
        digest = assert_rolling_is_whole(live)
        assert restored.decisions_digest() == digest
        assert recovered.decisions_digest() == digest
    assert len(recovered.sim.decisions) == len(live.sim.decisions)
