"""Model-checked service lifecycle: the engine never forgets a commitment.

A hypothesis ``RuleBasedStateMachine`` drives one journal-backed
:class:`~repro.service.ServiceEngine` through submit (keyed, unkeyed,
quota-limited tenant), keyed resubmit, a submit refused by an injected
``ENOSPC`` on the write-ahead append, a submit whose *checkpoint* is
refused after it was applied, cancel, tick, an injected solver fault,
crash-and-recover and compaction, against a reference model that is
three dicts: which job ids were accepted (and for whom), which
idempotency key maps to which id, and the last state each job was seen
in.  An injected fault's planning round must be served by the ladder
rung its depth names, and no fallback happens without an armed fault.

After every step:

* job states move only forward along
  accepted → queued/pending → running → completed | cancelling → cancelled;
* per tenant, the registry's ``live_jobs`` equals the model's accepted
  jobs not yet in a terminal state and ``submitted_total`` equals the
  model's accepted jobs (quota conservation — a refused submit counts
  for nothing);
* a repeated idempotency key answers with the first job id and
  ``deduplicated: true``;
* across a recovery every accepted id still answers ``job_status`` in
  the state it was last seen in, and ``decisions_digest()`` is unchanged;
  the recovery loaded the version-4 state anchor the last ``compact``
  wrote and applied exactly the records past its ``journal_seq``.

An accepted job is a binding commitment in the online model of Babaioff
et al. (PAPERS.md); this suite is the check that none is ever dropped,
duplicated or double-counted.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.degradation import LADDER
from repro.errors import JobStateError, TenantQuotaError
from repro.faults import FaultyFileOps
from repro.service import (JournalWriteError, ServiceConfig, TenantSpec,
                           open_journal, recover_engine)
from repro.service.journal import ANCHOR_NAME, RealFileOps
from repro.service.snapshot import SNAPSHOT_VERSION

CAPPED_QUOTA = 2
CONFIG = ServiceConfig(  # rush: the one policy with a solver to sabotage
    capacity=2, policy="rush", seed=0,
    tenants=(TenantSpec("free", share=0.5),
             TenantSpec("capped", share=0.5, max_active=CAPPED_QUOTA)))

TERMINAL = frozenset({"completed", "cancelled"})
#: state -> states it may be seen in next (a step may span several slots,
#: so this is reachability, not single edges).
MAY_FOLLOW = {
    "accepted": {"queued", "pending", "running", "completed",
                 "cancelling", "cancelled"},
    "queued": {"pending", "running", "completed", "cancelling",
               "cancelled"},
    "pending": {"running", "completed", "cancelling", "cancelled"},
    "running": {"pending", "completed", "cancelling", "cancelled"},
    "cancelling": {"cancelled"},
    "completed": set(),
    "cancelled": set(),
}
NEVER = 10 ** 9  # a write-op index no run reaches
SERVE_WITHIN = 6  # slots an armed fault is watched for before moving on
CHECKPOINT_EVERY = 3  # small, so upkeep runs (and can fail) mid-example

durations = st.lists(st.integers(1, 3), min_size=1, max_size=3)


class ServiceLifecycle(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.mkdtemp(prefix="rush-statemachine-")
        self._open()
        # The reference model.
        self.tenant_of = {}   # accepted job id -> tenant
        self.first_id = {}    # idempotency key -> job id it first created
        self.seen = {}        # accepted job id -> last observed state
        self.fresh = 0
        # The solver-fault depth armed but not yet spent on a planning
        # round (0: none), and the fallback counts when last looked.
        self.armed = 0
        self.fallbacks = {}
        #: The seq the anchor was last written at (a fresh journal is
        #: anchored at 0).
        self.anchored_at = 0

    def _open(self) -> None:
        self.ops = FaultyFileOps(RealFileOps(), species="enospc",
                                 at_op=NEVER)
        self.engine, self.writer = open_journal(
            self.directory, CONFIG, file_ops=self.ops, auto_compact=False,
            checkpoint_every=CHECKPOINT_EVERY)

    def teardown(self) -> None:
        self.engine.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _payload(self, tenant, tasks, *, keyed, arrival_offset=0):
        self.fresh += 1
        payload = {"task_durations": tasks, "budget": 30.0,
                   "tenant": tenant,
                   "arrival": self.engine.slot + arrival_offset}
        if keyed:
            payload["idempotency_key"] = f"key-{self.fresh}"
        return payload

    def _live(self, tenant) -> int:
        return sum(1 for job_id, owner in self.tenant_of.items()
                   if owner == tenant and self.seen[job_id] not in TERMINAL)

    # -- rules -----------------------------------------------------------

    @rule(tenant=st.sampled_from(["free", "capped"]), tasks=durations,
          keyed=st.booleans(), arrival_offset=st.integers(0, 2))
    def submit(self, tenant, tasks, keyed, arrival_offset):
        payload = self._payload(tenant, tasks, keyed=keyed,
                                arrival_offset=arrival_offset)
        if tenant == "capped" and self._live("capped") >= CAPPED_QUOTA:
            with pytest.raises(TenantQuotaError):
                self.engine.submit(payload)
            return
        status = self.engine.submit(payload)
        assert "deduplicated" not in status
        job_id = status["job_id"]
        assert job_id not in self.tenant_of
        self.tenant_of[job_id] = tenant
        self.seen[job_id] = status["state"]
        if keyed:
            self.first_id[payload["idempotency_key"]] = job_id

    @precondition(lambda self: self.first_id)
    @rule(data=st.data(), tasks=durations)
    def resubmit_same_key(self, data, tasks):
        key = data.draw(st.sampled_from(sorted(self.first_id)))
        first = self.first_id[key]
        payload = {"task_durations": tasks, "budget": 30.0,
                   "tenant": self.tenant_of[first], "idempotency_key": key}
        status = self.engine.submit(payload)
        assert status["deduplicated"] is True
        assert status["job_id"] == first

    @rule(tasks=durations, keyed=st.booleans())
    def refused_submit(self, tasks, keyed):
        """The submit's write-ahead append hits ENOSPC: a 503, and
        nothing — no job, no key, no tenant counter — remembers it."""
        payload = self._payload("free", tasks, keyed=keyed)
        self.ops.at_op = self.ops.writes + 1
        with pytest.raises(JournalWriteError):
            self.engine.submit(payload)
        self.ops.at_op = NEVER

    @rule(tasks=durations, keyed=st.booleans())
    def refused_housekeeping(self, tasks, keyed):
        """ENOSPC on the *second* write of the submit — the checkpoint
        append, when one is due — strikes after the job is durable and
        applied: the submit answers, and the model records the job."""
        self.ops.fired = False
        self.ops.at_op = self.ops.writes + 2
        self.submit("free", tasks, keyed, 0)
        self.ops.at_op = NEVER
        if self.ops.fired:
            assert "checkpoint" in self.engine.housekeeping_failure

    @rule(depth=st.integers(1, len(LADDER) - 1))
    def inject_fault(self, depth):
        """A journaled event like any other: the degraded slots it
        causes must replay, or ``crash_and_recover`` diverges.  The
        planning round it hits is served by ``LADDER[depth]`` — by
        ``greedy_edf`` when depth 1 finds no good plan to reuse."""
        assert self.engine.inject_solver_fault(depth)["armed"] is True
        self.armed = max(self.armed, depth)  # armed faults do not stack
        scheduler = self.engine.scheduler
        for _ in range(SERVE_WITHIN):
            had_plan = scheduler.last_plan is not None
            self.engine.tick()
            if scheduler.degradation_counts == self.fallbacks:
                continue  # no planning round this slot
            rung = LADDER[self.armed]
            if rung == "last_good" and not had_plan:
                rung = "greedy_edf"
            expected = dict(self.fallbacks)
            expected[rung] = expected.get(rung, 0) + 1
            assert scheduler.degradation_counts == expected
            return
        # No round fired (no pending work met a free container): the
        # fault stays armed and a later tick spends it.

    @precondition(lambda self: self.tenant_of)
    @rule(data=st.data())
    def cancel(self, data):
        job_id = data.draw(st.sampled_from(sorted(self.tenant_of)))
        if self.seen[job_id] in TERMINAL:
            with pytest.raises(JobStateError):
                self.engine.cancel(job_id)
        else:
            assert self.engine.cancel(job_id)["state"] == "cancelling"

    @rule(slots=st.integers(1, 3))
    def tick(self, slots):
        self.engine.tick(slots)

    @rule()
    def crash_and_recover(self):
        """Every append was fsynced before it was applied, so dropping
        the process here loses nothing: recovery must rebuild the same
        engine from the directory alone."""
        digest = self.engine.decisions_digest()
        last_seq = self.writer.seq
        self.engine.close()
        anchor = json.loads((Path(self.directory) / ANCHOR_NAME).read_text())
        recovered, stats = recover_engine(self.directory)
        assert anchor["version"] == stats["anchor_version"] == SNAPSHOT_VERSION
        assert anchor["journal_seq"] == stats["anchor_seq"] == self.anchored_at
        assert stats["applied"] == last_seq - self.anchored_at
        assert stats["last_seq"] == last_seq
        assert recovered.decisions_digest() == digest
        self._open()
        assert self.engine.decisions_digest() == digest
        for job_id, state in self.seen.items():
            assert self.engine.job_status(job_id)["state"] == state

    @rule()
    def compact(self):
        self.writer.rotate()
        self.writer.compact(self.engine)
        self.anchored_at = self.writer.seq

    # -- the invariant, checked after every step -------------------------

    @invariant()
    def a_fallback_spends_the_armed_fault(self):
        counts = self.engine.scheduler.degradation_counts
        if counts != self.fallbacks:
            assert self.armed, f"a fallback with no fault armed: {counts}"
            self.armed = 0
            self.fallbacks = counts

    @invariant()
    def engine_agrees_with_the_model(self):
        for job_id, before in self.seen.items():
            now = self.engine.job_status(job_id)["state"]
            assert now == before or now in MAY_FOLLOW[before], \
                f"{job_id}: {before} -> {now}"
            self.seen[job_id] = now
        assert len(self.engine.list_jobs()) == len(self.tenant_of)
        status = self.engine.registry.status()
        for tenant in ("free", "capped"):
            accepted = sum(1 for owner in self.tenant_of.values()
                           if owner == tenant)
            assert status[tenant]["submitted_total"] == accepted
            assert status[tenant]["live_jobs"] == self._live(tenant)


TestServiceLifecycle = ServiceLifecycle.TestCase
TestServiceLifecycle.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
