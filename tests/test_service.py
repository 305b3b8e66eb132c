"""In-process integration tests for the scheduler service.

Everything runs against real sockets on the loopback interface — the
daemon under test is the exact stack ``rush serve`` boots (stdlib
asyncio HTTP, manual-clock mode so the tests own time) — but inside a
single ``asyncio.run`` per test, so the suite stays fast and leak-free.

Covered here:

* the submit → query → stream → cancel lifecycle over HTTP;
* malformed requests rejected with *typed* error bodies (a bare 500
  always means a daemon bug, and nothing in this suite produces one);
* concurrent multi-tenant submission with quota enforcement (429) and
  quota release on completion;
* ``/metrics`` serving the live Prometheus registry;
* snapshot → kill → restore → resume with an identical decision stream
  (engine-level and through the HTTP endpoint), plus tamper detection;
* the daemon-side chaos case: an injected ``SolverBudgetError`` surfaces
  as a degradation-ladder fallback in the job-status payload — a served
  answer, never an error response.
"""

from __future__ import annotations

import asyncio
import json
import re
import socket
from contextlib import asynccontextmanager

import pytest

from repro import obs
from repro.errors import (BadRequestError, ConfigurationError, JobStateError,
                          TenantQuotaError, UnknownJobError)
from repro.service import (ServiceClient, ServiceConfig, ServiceDaemon,
                           ServiceEngine, ServiceRequestError, TenantSpec,
                           restore_engine, take_snapshot)
from repro.service.smoke import run_service_smoke
from repro.service.snapshot import SnapshotError

#: The leak audit, enforced: an unclosed stream writer or transport (a
#: pooled connection nobody closed) warns from ``__del__``, where pytest
#: can only report it as unraisable — make that a failure here.
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")

JOB = {"task_durations": [2, 2], "budget": 12}


def _config(**kw) -> ServiceConfig:
    kw.setdefault("capacity", 2)
    kw.setdefault("policy", "fifo")
    return ServiceConfig(**kw)


@asynccontextmanager
async def serving(config=None, **daemon_kw):
    """Boot a manual-clock daemon on an ephemeral port; always stop it
    (and close the client's pooled connections first)."""
    engine = ServiceEngine(config or _config())
    daemon = ServiceDaemon(engine, **daemon_kw)
    await daemon.start()
    try:
        async with ServiceClient("127.0.0.1", daemon.port) as client:
            yield daemon, client
    finally:
        await daemon.stop()


# ---------------------------------------------------------------------------
# Lifecycle over HTTP
# ---------------------------------------------------------------------------


def test_submit_query_cancel_lifecycle():
    async def scenario():
        async with serving() as (_daemon, client):
            health = await client.healthz()
            assert health == {"ok": True, "slot": 0}

            a = await client.submit(dict(JOB, job_id="a"))
            assert (a["state"], a["tenant"]) == ("accepted", "default")
            b = await client.submit(dict(JOB, job_id="b"))
            assert b["state"] == "accepted"

            await client.tick()
            a = await client.job("a")
            assert a["state"] == "running"
            assert a["running_tasks"] == 2  # fifo: both containers to a

            cancelled = await client.cancel("b")
            assert cancelled["state"] == "cancelling"
            await client.tick()
            assert (await client.job("b"))["state"] == "cancelled"

            await client.tick(5)
            a = await client.job("a")
            assert a["state"] == "completed"
            assert a["completion"] == 2 and a["runtime"] == 2.0

            jobs = await client.jobs()
            assert [(j["job_id"], j["state"]) for j in jobs] == [
                ("a", "completed"), ("b", "cancelled")]
            status = await client.status()
            assert status["completed_jobs"] == 1
            assert status["cancelled_jobs"] == 1
            assert status["service"]["mode"] == "manual"

    asyncio.run(scenario())


def test_queued_job_waits_for_its_arrival_slot():
    async def scenario():
        async with serving() as (_daemon, client):
            job = await client.submit(dict(JOB, job_id="later", arrival=3))
            assert job["state"] == "accepted"
            await client.tick()
            assert (await client.job("later"))["state"] == "queued"
            await client.tick(3)
            assert (await client.job("later"))["state"] == "running"

    asyncio.run(scenario())


def test_stream_reports_each_slot():
    async def scenario():
        async with serving() as (_daemon, client):
            await client.submit(dict(JOB, job_id="s"))

            async def ticker():
                await asyncio.sleep(0.05)  # let the stream subscribe
                for _ in range(4):
                    await client.tick()

            payloads, _ = await asyncio.gather(client.stream(4), ticker())
            assert [p["slot"] for p in payloads] == [0, 1, 2, 3]
            assert payloads[1]["active_jobs"] == 1
            assert payloads[-1]["completed_jobs"] == 1

    asyncio.run(scenario())


def test_metrics_endpoint_serves_live_registry():
    async def scenario():
        async with serving() as (_daemon, client):
            text = await client.metrics_text()
            assert "rush_service_jobs_submitted_total" not in text
            await client.submit(dict(JOB, job_id="m"))
            await client.tick(6)
            text = await client.metrics_text()
            assert 'rush_service_jobs_submitted_total{tenant="default"} 1' \
                in text
            assert "rush_sim_tasks_completed_total" in text

    obs.enable(trace=False, metrics=True, ledger=False)
    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Typed request rejection — never a 500
# ---------------------------------------------------------------------------


def test_malformed_requests_get_typed_errors():
    async def scenario():
        async with serving() as (_daemon, client):
            # raw non-JSON body
            status, _ctype, raw = await client.request(
                "POST", "/jobs", payload=None)
            assert status == 400  # missing body
            cases = [
                ("POST", "/jobs", {"task_durations": []},
                 400, "bad-request"),
                ("POST", "/jobs", {"task_durations": [1], "nope": 1},
                 400, "bad-request"),
                ("POST", "/jobs", {"task_durations": [0]},
                 400, "bad-request"),
                ("POST", "/jobs", {"task_durations": [1], "tenant": "ghost"},
                 400, "bad-request"),
                ("POST", "/jobs", {"task_durations": [1], "arrival": -1},
                 400, "bad-request"),
                ("GET", "/jobs/ghost", None, 404, "unknown-job"),
                ("DELETE", "/jobs/ghost", None, 404, "unknown-job"),
                # DELETE is the one cancel route; the POST alias is gone
                # and answers like any other unknown job route.
                ("POST", "/jobs/ghost/cancel", None, 400, "bad-request"),
                ("PATCH", "/jobs/ghost", None, 400, "bad-request"),
                ("POST", "/tick", {"slots": "three"}, 400, "bad-request"),
                ("POST", "/tick", {"slots": 0}, 400, "bad-request"),
                ("POST", "/chaos/solver-fault", {"depth": 1},
                 400, "bad-request"),  # chaos not enabled on this daemon
                ("GET", "/no/such/route", None, 404, "not-found"),
                # The journal is the one restart path; the manual
                # snapshot route is gone like any unknown route.
                ("POST", "/snapshot", None, 404, "not-found"),
                ("PUT", "/jobs", {"task_durations": [1]}, 404, "not-found"),
            ]
            for method, path, payload, want_status, want_code in cases:
                with pytest.raises(ServiceRequestError) as err:
                    await client.request_json(method, path, payload)
                assert (err.value.status, err.value.code) == \
                    (want_status, want_code), (method, path, payload)

            # duplicate id → 409, cancel-completed → 409
            await client.submit(dict(JOB, job_id="dup"))
            with pytest.raises(ServiceRequestError) as err:
                await client.submit(dict(JOB, job_id="dup"))
            assert (err.value.status, err.value.code) == (409, "job-state")
            await client.tick(6)
            with pytest.raises(ServiceRequestError) as err:
                await client.cancel("dup")
            assert (err.value.status, err.value.code) == (409, "job-state")

            # malformed JSON over the raw transport
            status, _ctype, raw = await client.request(
                "POST", "/jobs", payload=None)
            assert status == 400
            body = json.loads(raw)
            assert body["error"]["code"] == "bad-request"

    asyncio.run(scenario())


#: A well-formed request sent right behind each malformed one: a daemon
#: that framed the leftover bytes as a next request would answer twice.
PIPELINED = b"GET /healthz HTTP/1.1\r\n\r\n"


@pytest.mark.parametrize("wire", [
    b"GARBAGE\r\n\r\n",
    b"GET /healthz HTTP/2.0\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
    b"POST /tick HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n"
    b"\r\n{}",
    b"POST /tick HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n"
    b"\r\n{}",
    b"POST /tick HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
    b"2\r\n{}\r\n0\r\n\r\n",
    b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
    b"GET /status HTTP/1.1\r\nX-Pad: " + b"x" * 70_000 + b"\r\n\r\n",
], ids=["request-line", "http-version", "content-length",
        "duplicate-content-length", "conflicting-content-length",
        "transfer-encoding", "body-limit", "header-line"])
def test_malformed_wire_requests_are_answered_not_dropped(wire, caplog):
    """Bytes no HTTP client would send still get a typed 400 — not a
    silent close with an unhandled exception in the asyncio log — and
    the connection then closes: what follows cannot be framed."""
    async def scenario():
        async with serving() as (daemon, _client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(wire + PIPELINED)
            await writer.drain()
            answer = await asyncio.wait_for(reader.read(), 2.0)
            writer.close()
            await writer.wait_closed()
            return answer, daemon.engine.slot

    with caplog.at_level("ERROR", logger="asyncio"):
        answer, slot = asyncio.run(scenario())
    head, _, body = answer.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert answer.count(b"HTTP/1.1 ") == 1  # nothing after it was served
    error = json.loads(body)["error"]
    assert (error["code"], error["status"]) == ("bad-request", 400)
    assert slot == 0  # no /tick body was acted on
    assert not caplog.records


@pytest.mark.parametrize("body", [b"[1]", b"3", b'"x"', b"null"])
@pytest.mark.parametrize("path", ["/jobs", "/tick", "/chaos/solver-fault"])
def test_non_object_json_body_is_a_typed_400(path, body):
    """Valid JSON that is not an object is the client's mistake on every
    body-taking route — a 400, never the 500 reserved for daemon bugs."""
    async def scenario():
        async with serving(chaos=True) as (daemon, _client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            writer.write(b"POST %s HTTP/1.1\r\nConnection: close\r\n"
                         b"Content-Length: %d\r\n\r\n%s"
                         % (path.encode(), len(body), body))
            await writer.drain()
            answer = await reader.read()
            writer.close()
            await writer.wait_closed()
            return answer

    head, _, payload = asyncio.run(scenario()).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    error = json.loads(payload)["error"]
    assert (error["code"], error["status"]) == ("bad-request", 400)
    assert "JSON object" in error["message"]


# ---------------------------------------------------------------------------
# Persistent connections
# ---------------------------------------------------------------------------


def _count_connections(daemon: ServiceDaemon) -> list:
    """Record every connection ``daemon`` accepts (call before start)."""
    handle, peers = daemon._handle, []

    async def counting(reader, writer):
        peers.append(writer.get_extra_info("peername"))
        await handle(reader, writer)

    daemon._handle = counting
    return peers


async def _read_answer(reader: asyncio.StreamReader):
    """One response read by its Content-Length: (head, body)."""
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 2.0)
    length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
    return head, await reader.readexactly(length)


def test_one_client_uses_one_connection_per_concurrent_caller():
    async def scenario():
        daemon = ServiceDaemon(ServiceEngine(_config()))
        peers = _count_connections(daemon)
        await daemon.start()
        try:
            async with ServiceClient("127.0.0.1", daemon.port) as client:
                for k in range(5):
                    await client.submit(dict(JOB, job_id=f"j{k}"))
                    await client.tick()
                    assert (await client.job(f"j{k}"))["job_id"] == f"j{k}"
                await client.metrics_text()
                await client.jobs()
                sequential = len(peers)
                for _round in range(3):
                    await asyncio.gather(*(client.status() for _ in range(4)))
                return sequential, len(peers)
        finally:
            await daemon.stop()

    assert asyncio.run(scenario()) == (1, 4)


@pytest.mark.parametrize("version, header, keep_alive", [
    ("HTTP/1.1", "", True),
    ("HTTP/1.1", "Connection: close\r\n", False),
    ("HTTP/1.1", "Connection: Keep-Alive, Close\r\n", False),
    ("HTTP/1.0", "", False),
    ("HTTP/1.0", "Connection: keep-alive\r\n", True),
])
def test_daemon_honours_the_clients_connection_header(version, header,
                                                      keep_alive):
    async def scenario():
        async with serving() as (daemon, _client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            try:
                request = f"GET /healthz {version}\r\n{header}\r\n".encode()
                writer.write(request)
                head, body = await _read_answer(reader)
                assert json.loads(body) == {"ok": True, "slot": 0}
                if keep_alive:  # the same connection serves the next one
                    writer.write(request)
                    _head, again = await _read_answer(reader)
                    assert json.loads(again) == {"ok": True, "slot": 0}
                else:
                    assert await asyncio.wait_for(reader.read(), 2.0) == b""
                return head
            finally:
                writer.close()
                await writer.wait_closed()

    stated = b"keep-alive" if keep_alive else b"close"
    assert b"\r\nConnection: " + stated + b"\r\n" in asyncio.run(scenario())


@pytest.mark.parametrize("stage", ["idle", "stalled"])
def test_daemon_closes_a_connection_after_the_idle_deadline(stage,
                                                            monkeypatch):
    """Between requests (idle keep-alive) and inside one (a client that
    stalls mid-body) the same deadline applies: the daemon hangs up."""
    import repro.service.daemon as daemon_mod

    monkeypatch.setattr(daemon_mod, "_IDLE_SECONDS", 0.2)

    async def scenario():
        async with serving() as (daemon, _client):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon.port)
            try:
                if stage == "idle":
                    writer.write(b"GET /healthz HTTP/1.1\r\n\r\n")
                    await _read_answer(reader)
                else:
                    writer.write(b"POST /jobs HTTP/1.1\r\n"
                                 b"Content-Length: 40\r\n\r\n{")
                await writer.drain()
                started = asyncio.get_running_loop().time()
                rest = await asyncio.wait_for(reader.read(), 2.0)
                waited = asyncio.get_running_loop().time() - started
                return rest, waited, len(daemon._inflight)
            finally:
                writer.close()
                await writer.wait_closed()

    rest, waited, handlers = asyncio.run(scenario())
    assert rest == b""  # closed, and a stalled request is never answered
    assert 0.1 < waited < 1.5
    assert handlers == 0


def test_stop_closes_idle_and_stalled_connections_at_once():
    """Neither an idle keep-alive connection nor a half-sent request is
    in flight: stop() must not wait its drain bound for them."""
    async def scenario():
        daemon = ServiceDaemon(ServiceEngine(_config()))
        await daemon.start()
        connections = [await asyncio.open_connection("127.0.0.1", daemon.port)
                       for _ in range(3)]
        try:
            (idle_reader, idle), (_, silent), (_, stalled) = connections
            idle.write(b"GET /healthz HTTP/1.1\r\n\r\n")
            await _read_answer(idle_reader)
            stalled.write(b"POST /jobs HTTP/1.1\r\nContent-Length: 40\r\n"
                          b"\r\n{\"task_dur")
            await stalled.drain()
            await asyncio.sleep(0.05)  # the daemon is reading the body
            started = asyncio.get_running_loop().time()
            await daemon.stop()
            took = asyncio.get_running_loop().time() - started
            for reader, _writer in connections:
                assert await asyncio.wait_for(reader.read(), 2.0) == b""
            return took
        finally:
            for _reader, writer in connections:
                writer.close()
                await writer.wait_closed()

    assert asyncio.run(scenario()) < 1.0


def test_stop_delivers_the_whole_answer_a_slow_reader_is_owed():
    """A keep-alive answer larger than the socket buffers, read slowly:
    the handler waits for the next request only once the answer has
    left its buffer, so stop(), closing the connection the moment it
    waits, never cuts the answer's tail off."""
    engine = ServiceEngine(_config())
    for k in range(2000):
        engine.submit(dict(JOB, job_id=f"job-{k:04d}"))

    async def scenario():
        daemon = ServiceDaemon(engine)
        handle = daemon._handle

        async def small_buffers(reader, writer):
            writer.get_extra_info("socket").setsockopt(
                socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            await handle(reader, writer)

        daemon._handle = small_buffers
        await daemon.start()
        sock = socket.socket()
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.connect(("127.0.0.1", daemon.port))
        reader, writer = await asyncio.open_connection(sock=sock)
        try:
            writer.write(b"GET /jobs HTTP/1.1\r\n\r\n")
            head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 2.0)
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            body = b""
            while not daemon._reading:  # read slowly until it waits again
                body += await asyncio.wait_for(reader.read(4096), 2.0)
            await daemon.stop()
            body += await asyncio.wait_for(
                reader.readexactly(length - len(body)), 2.0)
            return len(json.loads(body)["jobs"])
        finally:
            writer.close()
            await writer.wait_closed()

    assert asyncio.run(scenario()) == 2000


def test_aclose_closes_every_pooled_connection():
    async def scenario():
        async with serving() as (daemon, client):
            await asyncio.gather(*(client.healthz() for _ in range(3)))
            pooled = [writer for (_reader, writer), _since in client._pool]
            await client.aclose()
            # the daemon sees each close and ends its handler
            for _ in range(100):
                if not daemon._inflight:
                    break
                await asyncio.sleep(0.01)
            return pooled, client._pool, len(daemon._inflight)

    pooled, left, handlers = asyncio.run(scenario())
    assert len(pooled) == 3 and all(w.is_closing() for w in pooled)
    assert left == [] and handlers == 0


def test_a_restarted_daemon_does_not_fail_a_pooled_read():
    """The pool outlives the daemon it connected to; with ``retries=0``
    a read still succeeds against the daemon that replaced it."""
    async def scenario():
        first = ServiceDaemon(ServiceEngine(_config()))
        await first.start()
        port = first.port
        async with ServiceClient("127.0.0.1", port, retries=0) as client:
            await client.tick(2)
            assert (await client.healthz())["slot"] == 2
            await first.stop()
            second = ServiceDaemon(ServiceEngine(_config()))
            await second.start(port=port)
            try:
                return await client.healthz()
            finally:
                await second.stop()

    assert asyncio.run(scenario()) == {"ok": True, "slot": 0}


def test_list_jobs_equals_per_job_status_in_every_state():
    """``list_jobs`` computes the degradation summary once per request;
    the payload must stay exactly what per-job queries return."""
    engine = ServiceEngine(_config(policy="rush", capacity=3))
    long_job = {"task_durations": [9, 9, 9], "budget": 60}
    for job_id in ("done", "gone"):
        engine.submit(dict(JOB, job_id=job_id))
    for job_id in ("going", "busy", "idle"):
        engine.submit(dict(long_job, job_id=job_id))
    engine.submit(dict(JOB, job_id="later", arrival=500))
    engine.tick()
    engine.cancel("gone")
    engine.tick(8)
    engine.inject_solver_fault(2)  # ladder bottoms out: a degraded slot
    engine.tick(2)
    engine.cancel("going")
    engine.submit(dict(JOB, job_id="fresh"))

    listing = engine.list_jobs()
    assert listing == [engine.job_status(job_id) for job_id in sorted(
        ["done", "gone", "going", "busy", "idle", "later", "fresh"])]
    states = {status["job_id"]: status["state"] for status in listing}
    assert states["done"] == "completed" and states["gone"] == "cancelled"
    assert states["going"] == "cancelling" and states["later"] == "queued"
    assert states["fresh"] == "accepted"
    assert (states["busy"], states["idle"]) == ("running", "pending")
    assert listing[0]["degradation"]["last_fallback"] == "greedy_edf"
    assert listing[0]["degradation"] == engine.cluster_status()["degradation"]


def test_each_finished_job_is_released_exactly_once(monkeypatch):
    """A tick releases the jobs that left the cluster during it — not
    the whole history of finished jobs again."""
    from repro.service.tenants import TenantRegistry

    released = []
    release = TenantRegistry.release

    def spy(self, job_id):
        released.append(job_id)
        release(self, job_id)

    monkeypatch.setattr(TenantRegistry, "release", spy)
    engine = ServiceEngine(_config())
    for slot in range(50):
        if slot < 20:
            engine.submit(dict(JOB, job_id=f"j{slot}"))
        if slot % 5 == 1 and slot < 20:
            engine.cancel(f"j{slot}")
        engine.tick()
        finished = [s["job_id"] for s in engine.list_jobs()
                    if s["state"] in ("completed", "cancelled")]
        # the PR 14 state machine's model: live = accepted, not terminal
        assert engine.registry.status()["default"]["live_jobs"] == \
            len(engine.list_jobs()) - len(finished)
    assert len(finished) == 20
    assert sorted(released) == sorted(finished)


def test_engine_rejects_past_arrivals_and_ticks():
    engine = ServiceEngine(_config())
    engine.tick(3)
    with pytest.raises(BadRequestError):
        engine.submit(dict(JOB, arrival=1))
    with pytest.raises(BadRequestError):
        engine.tick(0)
    with pytest.raises(UnknownJobError):
        engine.job_status("nobody")
    auto = engine.submit(dict(JOB))
    assert auto["job_id"] == "default-1"  # auto-assigned, tenant-prefixed


# ---------------------------------------------------------------------------
# Multi-tenancy: concurrent submission, quotas, shares
# ---------------------------------------------------------------------------

TENANTS = (TenantSpec("alpha", share=0.5, max_active=2),
           TenantSpec("beta", share=0.5))


def test_concurrent_tenants_and_quota_enforcement():
    async def scenario():
        async with serving(_config(tenants=TENANTS)) as (_daemon, client):
            payloads = [dict(JOB, job_id=f"a{k}", tenant="alpha")
                        for k in range(4)]
            payloads += [dict(JOB, job_id=f"b{k}", tenant="beta")
                         for k in range(4)]

            async def try_submit(payload):
                try:
                    return await client.submit(payload)
                except ServiceRequestError as exc:
                    return exc

            results = await asyncio.gather(*[try_submit(p) for p in payloads])
            quota_hits = [r for r in results
                          if isinstance(r, ServiceRequestError)]
            accepted = [r for r in results if isinstance(r, dict)]
            # alpha's max_active=2 rejects 2 of its 4; beta is unlimited.
            assert len(quota_hits) == 2
            assert all((e.status, e.code) == (429, "quota-exceeded")
                       for e in quota_hits)
            assert len(accepted) == 6

            tenants = await client.tenants()
            assert tenants["alpha"]["live_jobs"] == 2
            assert tenants["beta"]["live_jobs"] == 4
            assert tenants["alpha"]["share"] == 0.5

            # completions release quota: alpha can submit again
            await client.tick(20)
            assert (await client.tenants())["alpha"]["live_jobs"] == 0
            retry = await client.submit(dict(JOB, tenant="alpha"))
            assert retry["tenant"] == "alpha"

    asyncio.run(scenario())


def test_capacity_policy_uses_tenant_shares_as_queues():
    engine = ServiceEngine(ServiceConfig(
        capacity=4, policy="capacity", tenants=TENANTS))
    engine.submit(dict(JOB, job_id="a0", tenant="alpha"))
    engine.submit(dict(JOB, job_id="b0", tenant="beta"))
    engine.tick()
    a0, b0 = engine.job_status("a0"), engine.job_status("b0")
    # with equal shares and 4 containers, each tenant's job runs 2 tasks
    assert a0["running_tasks"] == 2 and b0["running_tasks"] == 2
    engine.tick(6)
    assert engine.job_status("a0")["state"] == "completed"
    assert engine.job_status("b0")["state"] == "completed"
    assert engine.config.to_dict()["policy"] == "capacity"


def test_capacity_policy_rejects_scheduler_options():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=2, policy="capacity",
                      scheduler_options={"theta": 0.9})
    with pytest.raises(ConfigurationError):
        ServiceConfig(capacity=2, policy="definitely-not-a-policy")


#: Options a JSON config could set before the census (each switched a
#: planner approximation or a test-only A/B path on a live daemon), and
#: the wall-clock planning budget, which made decisions depend on host
#: speed and so could not be replayed.
REMOVED_OPTIONS = ("warm_start", "incremental", "work_conserving",
                   "compensate_runtime", "wcde_cache_size",
                   "default_prior_runtime", "weighted", "default_runtime",
                   "plan_time_budget")


def test_scheduler_options_must_be_json_settable():
    from repro.schedulers import POLICIES

    assert POLICIES["rush"][1] == ("delta", "theta", "tolerance")
    for policy, (_builder, accepted) in POLICIES.items():
        if policy != "rush":
            assert accepted == ()
        for key in accepted:
            ServiceConfig(capacity=4, policy=policy,
                          scheduler_options={key: 0.5})
        listed = ", ".join(accepted) or r"\(none\)"
        for key in REMOVED_OPTIONS + ("estimator_factory",):
            with pytest.raises(ConfigurationError,
                               match=f"'{key}'.*accepted: {listed}$"):
                ServiceConfig(capacity=4, policy=policy,
                              scheduler_options={key: True})
    # What the perf ledger's server runs with stays valid.
    ServiceConfig(capacity=4, policy="rush",
                  scheduler_options={"theta": 0.9, "delta": 0.7})


def test_self_contradicting_config_is_refused_before_any_engine_exists():
    with pytest.raises(ConfigurationError, match="'warm_start'"):
        ServiceConfig(capacity=4, scheduler_options={
            "warm_start": True, "incremental": False,
            "compensate_runtime": False, "wcde_cache_size": 0,
            "work_conserving": False})


@pytest.mark.parametrize("key", REMOVED_OPTIONS)
def test_removed_option_is_refused_by_snapshot_restore(key):
    snapshot = take_snapshot(ServiceEngine(_config(policy="rush")))
    snapshot["config"]["scheduler_options"] = {key: True}
    with pytest.raises(SnapshotError,
                       match=f"'{key}'.*accepted: delta, theta, "
                             "tolerance$"):
        restore_engine(snapshot)


def test_engine_typed_errors_without_http():
    engine = ServiceEngine(_config(tenants=TENANTS))
    engine.submit(dict(JOB, job_id="a0", tenant="alpha"))
    engine.submit(dict(JOB, job_id="a1", tenant="alpha"))
    with pytest.raises(TenantQuotaError):
        engine.submit(dict(JOB, job_id="a2", tenant="alpha"))
    with pytest.raises(BadRequestError):
        engine.submit(dict(JOB, tenant="ghost"))
    assert engine.cancel("a0")["state"] == "cancelling"
    # cancelling again while the cancel is in flight is idempotent...
    assert engine.cancel("a0")["state"] == "cancelling"
    engine.tick()
    # ...but cancelling a *cancelled* job is a state error
    with pytest.raises(JobStateError):
        engine.cancel("a0")


# ---------------------------------------------------------------------------
# Snapshot → kill → restore → resume
# ---------------------------------------------------------------------------


def _rush_config() -> ServiceConfig:
    return ServiceConfig(capacity=2, policy="rush", seed=3,
                         scheduler_options={"theta": 0.9, "delta": 0.7})


def _busy_engine() -> ServiceEngine:
    engine = ServiceEngine(_rush_config())
    engine.submit({"task_durations": [3, 2, 2], "budget": 14, "job_id": "a"})
    engine.submit({"task_durations": [4], "budget": 9, "job_id": "b"})
    engine.tick(2)
    engine.submit({"task_durations": [2, 2], "budget": 8, "job_id": "c"})
    engine.tick(1)
    engine.cancel("b")
    engine.tick(1)
    return engine


def test_snapshot_restore_resumes_identical_decision_stream():
    original = _busy_engine()
    snap = take_snapshot(original)

    # the original keeps running to completion: the reference stream
    original.tick(30)
    reference_decisions = original.decision_stream()
    reference_records = original.records_digest()

    # "kill": the restored engine is a brand-new object, rebuilt purely
    # from the snapshot dict (round-tripped through JSON like the file).
    revived = restore_engine(json.loads(json.dumps(snap)))
    assert revived.slot == snap["slot"]
    assert revived.decisions_digest() == snap["decisions_digest"]
    revived.tick(30)
    assert revived.decision_stream() == reference_decisions
    assert revived.records_digest() == reference_records
    assert [e["kind"] for e in revived.journal] == \
        [e["kind"] for e in original.journal]


def test_snapshot_tampering_is_detected():
    snap = take_snapshot(_busy_engine())
    tampered = json.loads(json.dumps(snap))
    for entry in tampered["journal"]:
        if entry["kind"] == "submit":
            entry["spec"]["task_durations"] = [9, 9, 9]
    with pytest.raises(SnapshotError):
        restore_engine(tampered)
    with pytest.raises(SnapshotError):
        restore_engine({"format": "something-else"})
    with pytest.raises(SnapshotError):
        restore_engine(dict(snap, version=99))


@pytest.mark.parametrize("digest", ["missing", None, 7, ["abc"]])
def test_snapshot_without_a_digest_is_refused_not_replayed_unverified(digest):
    """Every snapshot ever written carries its decision digest; one that
    has none could only be replayed unverified, so it is refused."""
    engine = _busy_engine()
    snap = take_snapshot(engine)
    assert restore_engine(snap).slot == engine.slot  # intact: restores
    if digest == "missing":
        snap.pop("decisions_digest")
    else:
        snap["decisions_digest"] = digest
    with pytest.raises(SnapshotError, match="no decisions_digest"):
        restore_engine(snap)


# ---------------------------------------------------------------------------
# Chaos: solver faults degrade the answer, not the request
# ---------------------------------------------------------------------------


def test_injected_solver_fault_reports_degradation_not_500():
    async def scenario():
        async with serving(_rush_config(), chaos=True) as (_daemon, client):
            await client.submit(
                {"task_durations": [3, 3, 2], "budget": 14, "job_id": "j"})
            await client.tick(1)  # a healthy plan first
            before = await client.job("j")
            assert before["degradation"]["last_fallback"] is None

            armed = await client.chaos_solver_fault(depth=1)
            assert armed == {"armed": True, "depth": 1, "slot": 1}
            # the next planning round runs at slot 3, when the first two
            # tasks free their containers and the third needs a grant —
            # that is the solve the armed fault sabotages
            await client.tick(3)

            after = await client.job("j")  # a 200, not an error
            ladder = after["degradation"]
            # the healthy slot-0 plan serves the sabotaged round
            assert ladder["fallbacks"] == {"last_good": 1}
            assert ladder["last_fallback"] == "last_good"
            assert ladder["last_fallback_slot"] == 3
            # and the cluster kept scheduling through the fault
            status = await client.status()
            assert status["running_tasks"] >= 1

            with pytest.raises(ServiceRequestError) as err:
                await client.chaos_solver_fault(depth=7)
            assert err.value.status == 400

    asyncio.run(scenario())


def test_chaos_depth_validation_and_policy_guard():
    engine = ServiceEngine(_config())  # fifo: nothing to sabotage
    with pytest.raises(BadRequestError):
        engine.inject_solver_fault(1)
    rush = ServiceEngine(_rush_config())
    with pytest.raises(BadRequestError):
        rush.inject_solver_fault(True)  # bool is not a depth


# ---------------------------------------------------------------------------
# Clean shutdown: no lingering loops, transports or tasks
# ---------------------------------------------------------------------------


def test_daemon_stop_closes_listener_and_streams():
    async def scenario():
        engine = ServiceEngine(_config())
        daemon = ServiceDaemon(engine)
        await daemon.start()
        client = ServiceClient("127.0.0.1", daemon.port)
        port = daemon.port

        stream_task = asyncio.create_task(client.stream(100))
        await asyncio.sleep(0.05)  # stream subscribes
        assert len(daemon._subscribers) == 1
        await daemon.stop()
        # the open stream was terminated by the stop sentinel, not left
        # hanging — and the port no longer accepts connections
        payloads = await asyncio.wait_for(stream_task, timeout=2)
        assert len(payloads) >= 1
        with pytest.raises(OSError):
            await asyncio.open_connection("127.0.0.1", port)

    asyncio.run(scenario())
    # after asyncio.run returns nothing may linger (the conftest audit
    # fixture and the ResourceWarning filters enforce the rest)


# ---------------------------------------------------------------------------
# The CI equivalence battery (slow lane)
# ---------------------------------------------------------------------------


#: ``rush serve --smoke``'s records digest (fast hpc-replay, seed 0), as
#: computed while the Gaussian CDF still came from ``scipy.special.erf``.
#: The stdlib ``math.erf`` moves PMF bytes by 1-3 ulp, so PMF and WCDE
#: fingerprints can no longer vouch for the decisions; this pin does.
SMOKE_SERVICE_DIGEST = (
    "2e5d665baa661f1113c891589cf297aea37cd13949b3f6c14f0e48785403cb7e")


@pytest.mark.slow
def test_service_smoke_battery_matches_simulator_path():
    report = run_service_smoke(seed=0, fast=True)
    assert report["match"] is True
    assert report["jobs"] == 50
    assert report["service_digest"] == SMOKE_SERVICE_DIGEST
