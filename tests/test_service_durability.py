"""Durability battery: graceful shutdown, retry-safe clients, crash smoke.

The journal's crash-point sweeps live in ``tests/test_journal.py``; this
file covers the operational surface around it — the real ``rush serve``
subprocess under SIGTERM, the HTTP idempotency contract through a live
daemon, and the client's transport-failure hardening (connection
refused, mid-body EOF, the never-retry rule for ``/tick``).
"""

from __future__ import annotations

import asyncio
import signal
import socket
from contextlib import asynccontextmanager

import pytest

from repro.service import (RealTimeClock, ServiceClient, ServiceConfig,
                           ServiceDaemon, ServiceEngine,
                           ServiceUnavailableError, open_journal)
from repro.service.journal import RealFileOps
from repro.service.smoke import (_crash_payload, _spawn_server,
                                 _wait_for_banner, run_crash_smoke)

#: The leak audit, enforced (see tests/test_service.py).
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnraisableExceptionWarning")


def _config(**kw) -> ServiceConfig:
    base = dict(capacity=3, policy="fifo", seed=0)
    base.update(kw)
    return ServiceConfig(**base)


def _free_port() -> int:
    """A port that was just free — used to provoke connection refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Satellite 1: SIGTERM drains and flushes, exercised on a real subprocess.
# ---------------------------------------------------------------------------


def test_sigterm_drains_flushes_and_recovers(tmp_path):
    journal_dir = str(tmp_path / "wal")
    proc = _spawn_server(journal_dir)
    try:
        port = _wait_for_banner(proc)

        async def submit_some():
            async with ServiceClient("127.0.0.1", port, retries=2) as client:
                ids = []
                for index in range(3):
                    status = await client.submit(
                        _crash_payload(index), idempotency_key=f"sig-{index}")
                    ids.append(str(status["job_id"]))
                await client.tick(2)
                return ids

        job_ids = asyncio.run(submit_some())
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise

    assert proc.returncode == 0, out
    assert "stopped: drained and journal flushed" in out

    # Everything acked before SIGTERM survives a cold restart.
    engine, writer = open_journal(journal_dir)
    try:
        recovered = {str(job["job_id"]) for job in engine.list_jobs()}
        assert set(job_ids) <= recovered
        assert engine.slot == 2
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Satellite 2: client hardening — typed unavailability, retry discipline.
# ---------------------------------------------------------------------------


def test_connection_refused_raises_typed_error_with_attempts():
    async def scenario():
        client = ServiceClient("127.0.0.1", _free_port(), retries=2,
                               backoff_base=0.001)
        with pytest.raises(ServiceUnavailableError) as err:
            await client.healthz()
        return err.value

    error = asyncio.run(scenario())
    assert error.attempts == 3  # retries + 1
    assert "3 attempts" in str(error)


def test_tick_is_never_retried():
    async def scenario():
        client = ServiceClient("127.0.0.1", _free_port(), retries=5,
                               backoff_base=0.001)
        with pytest.raises(ServiceUnavailableError) as err:
            await client.tick(1)
        return err.value

    assert asyncio.run(scenario()).attempts == 1


def test_mid_body_eof_is_retried_until_a_full_response():
    """First response dies mid-body; the keyed retry gets the real one."""
    hits = {"count": 0}
    body = b'{"ok": true}'

    async def flaky(reader: asyncio.StreamReader,
                    writer: asyncio.StreamWriter) -> None:
        await reader.readuntil(b"\r\n\r\n")
        hits["count"] += 1
        if hits["count"] == 1:
            # Advertise the full body, send half, hang up.
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                         b"\r\nContent-Length: %d\r\n\r\n" % len(body))
            writer.write(body[: len(body) // 2])
        else:
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                         b"\r\nContent-Length: %d\r\n\r\n" % len(body) + body)
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(flaky, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            async with ServiceClient("127.0.0.1", port, retries=2,
                                     backoff_base=0.001) as client:
                return await client.request_json("GET", "/healthz")
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == {"ok": True}
    assert hits["count"] == 2  # one truncated attempt + one clean retry


def test_mid_body_eof_without_retries_is_typed():
    async def dead(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        await reader.readuntil(b"\r\n\r\n")
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\n{")
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(dead, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = ServiceClient("127.0.0.1", port)
            with pytest.raises(ServiceUnavailableError) as err:
                await client.healthz()
            return err.value
        finally:
            server.close()
            await server.wait_closed()

    error = asyncio.run(scenario())
    assert error.attempts == 1
    assert "truncated body" in str(error)


@pytest.mark.parametrize("answer", [
    b"HTTP/1.1",
    b"HTTP/1.1 200 OK\r\nContent-Le",
    b"HTTP/1.1 2xx OK\r\nContent-Length: 2\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\nContent-Length: abc\r\n\r\n{}",
    b"HTTP/1.1 200 OK\r\n\r\n",
], ids=["torn-status-line", "torn-head", "status-code", "content-length",
        "no-content-length"])
def test_a_malformed_response_is_typed_and_retried(answer):
    """An unparseable response is a transport failure like any other:
    retried, then a ``ServiceUnavailableError`` — never an
    ``IndexError`` or ``ValueError`` out of the parser."""
    hits = {"count": 0}

    async def broken(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        await reader.readuntil(b"\r\n\r\n")
        hits["count"] += 1
        writer.write(answer)
        await writer.drain()
        writer.close()

    async def scenario():
        server = await asyncio.start_server(broken, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = ServiceClient("127.0.0.1", port, retries=2,
                                   backoff_base=0.001)
            with pytest.raises(ServiceUnavailableError) as err:
                await client.healthz()
            return err.value
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()).attempts == 3
    assert hits["count"] == 3


async def _serve_once_per_connection(seen: list, *, close: bool = False):
    """A server that answers the first request on each connection and
    hangs up on the second one unanswered — a pooled connection that
    went stale just as the client reused it.  ``close`` makes it answer
    ``Connection: close`` (but keep the socket open)."""
    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        connection = len({index for index, _path in seen})
        try:
            for request in range(2):
                head = await reader.readuntil(b"\r\n\r\n")
                length = int(head.split(b"Content-Length: ")[1]
                             .split(b"\r\n")[0])
                await reader.readexactly(length)
                seen.append((connection, head.split(b" ")[1].decode()))
                if request == 1:
                    break
                body = b'{"ok": true, "slot": 0}'
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n"
                    b"Connection: %s\r\n\r\n%s"
                    % (len(body), b"close" if close else b"keep-alive", body))
                await writer.drain()
        except asyncio.IncompleteReadError:
            pass
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


@pytest.mark.parametrize("retries", [0, 3])
def test_a_stale_pooled_connection_resends_only_idempotent_requests(retries):
    """A read that meets a dropped pooled connection is re-sent on a
    fresh one, whatever ``retries`` says; ``/tick`` is sent once and
    fails typed, however many retries are allowed."""
    seen: list = []

    async def scenario():
        server = await _serve_once_per_connection(seen)
        port = server.sockets[0].getsockname()[1]
        try:
            async with ServiceClient("127.0.0.1", port, retries=retries,
                                     backoff_base=0.001) as client:
                await client.healthz()
                read = await client.healthz()  # stale, then re-sent
                with pytest.raises(ServiceUnavailableError) as err:
                    await client.tick(1)  # stale: never re-sent
                return read, err.value
        finally:
            server.close()
            await server.wait_closed()

    read, error = asyncio.run(scenario())
    assert read == {"ok": True, "slot": 0}
    assert error.attempts == 1
    assert seen == [(0, "/healthz"), (0, "/healthz"), (1, "/healthz"),
                    (1, "/tick")]


def test_the_client_honours_the_daemons_connection_close():
    """A response saying ``Connection: close`` ends that connection's
    use, even if the socket stays open: the next request opens another."""
    seen: list = []

    async def scenario():
        server = await _serve_once_per_connection(seen, close=True)
        port = server.sockets[0].getsockname()[1]
        try:
            async with ServiceClient("127.0.0.1", port) as client:
                for _ in range(3):
                    assert (await client.healthz())["ok"] is True
                return client._pool
        finally:
            server.close()
            await server.wait_closed()

    assert asyncio.run(scenario()) == []
    assert seen == [(0, "/healthz"), (1, "/healthz"), (2, "/healthz")]


# ---------------------------------------------------------------------------
# Idempotency keys over the wire: dedup through a live daemon.
# ---------------------------------------------------------------------------


@asynccontextmanager
async def serving(config=None):
    engine = ServiceEngine(config or _config())
    daemon = ServiceDaemon(engine)
    await daemon.start()
    try:
        async with ServiceClient("127.0.0.1", daemon.port) as client:
            yield client
    finally:
        await daemon.stop()


def test_http_resubmit_with_same_key_deduplicates():
    async def scenario():
        async with serving() as client:
            first = await client.submit(_crash_payload(0),
                                        idempotency_key="dup-1")
            again = await client.submit(_crash_payload(0),
                                        idempotency_key="dup-1")
            jobs = await client.jobs()
            return first, again, jobs

    first, again, jobs = asyncio.run(scenario())
    assert not first.get("deduplicated")
    assert again["deduplicated"] is True
    assert again["job_id"] == first["job_id"]
    assert len(jobs) == 1


def test_auto_keys_are_distinct_across_submits():
    """A retries-enabled client must never dedup two *different* submits."""

    async def scenario():
        async with serving() as raw, \
                ServiceClient(raw.host, raw.port, retries=2) as client:
            one = await client.submit(_crash_payload(0))
            two = await client.submit(_crash_payload(1))
            return one, two, await client.jobs()

    one, two, jobs = asyncio.run(scenario())
    assert one["job_id"] != two["job_id"]
    assert len(jobs) == 2


def test_blank_idempotency_key_is_rejected():
    async def scenario():
        from repro.service import ServiceRequestError

        async with serving() as client:
            with pytest.raises(ServiceRequestError) as err:
                await client.submit(_crash_payload(0), idempotency_key="")
            return err.value

    error = asyncio.run(scenario())
    assert error.status == 400


# ---------------------------------------------------------------------------
# The real-time slot loop survives a refused tick (and reports a dead one).
# ---------------------------------------------------------------------------


class _FullDisk(RealFileOps):
    """Real file ops whose appends hit ENOSPC for as long as ``full``."""

    full = False

    def write(self, fobj, data):
        if self.full:
            raise OSError(28, "No space left on device")
        return super().write(fobj, data)


async def _until(condition, timeout=10.0):
    """Poll ``condition()`` on the event loop; fail the test on timeout."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.005)


def test_refused_tick_stalls_the_slot_loop_but_does_not_end_it(tmp_path):
    """A tick the journal refuses used to raise out of the slot task:
    the clock stopped for good while HTTP kept answering, and ``stop()``
    re-raised the stored error before it reached ``engine.close()``."""

    async def scenario():
        clock = RealTimeClock(0.01)
        ops = _FullDisk()
        engine, _writer = open_journal(tmp_path, _config(), clock=clock,
                                       file_ops=ops)
        daemon = ServiceDaemon(engine)
        await daemon.start()
        client = ServiceClient("127.0.0.1", daemon.port)
        try:
            await client.submit(_crash_payload(0))
            await _until(lambda: engine.slot >= 2)
            assert (await client.status())["service"]["slot_loop"] == "ok"

            ops.full = True
            await _until(lambda: daemon._slot_loop_state != "ok")
            stalled_at = engine.slot
            status = await client.status()
            assert status["service"]["slot_loop"] == \
                "stalled: journal-unavailable"
            await asyncio.sleep(0.05)  # several boundaries: no progress,
            assert engine.slot == stalled_at  # and nothing half-applied

            ops.full = False
            await _until(lambda: engine.slot >= stalled_at + 3)
            assert (await client.status())["service"]["slot_loop"] == "ok"
        finally:
            await client.aclose()
            await daemon.stop()  # returns, and reaches engine.close()
        assert engine.wal is None
        return engine.slot, engine.decisions_digest()

    slot, digest = asyncio.run(scenario())
    recovered, _writer = open_journal(tmp_path)
    try:
        assert (recovered.slot, recovered.decisions_digest()) == (slot, digest)
        assert recovered.job_status("default-1")["state"] == "completed"
    finally:
        recovered.close()


def test_a_dead_slot_loop_is_reported_and_stop_still_closes(tmp_path):
    """Anything but a typed refusal is a daemon bug: the loop ends, but
    not silently — ``/status`` says so and ``stop()`` still flushes."""

    async def scenario():
        clock = RealTimeClock(0.01)
        engine, writer = open_journal(tmp_path, _config(), clock=clock)
        daemon = ServiceDaemon(engine)

        def broken_tick(slots):
            raise RuntimeError("boom")

        daemon._do_tick = broken_tick
        await daemon.start()
        try:
            await _until(lambda: daemon._slot_task.done())
            async with ServiceClient("127.0.0.1", daemon.port) as client:
                status = await client.status()
            assert status["service"]["slot_loop"] == \
                "dead: RuntimeError: boom"
        finally:
            await daemon.stop()
        assert engine.wal is None and writer._closed

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Satellite 5 (in-repo half): the full crash-smoke battery.
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_crash_smoke_battery(tmp_path):
    report = run_crash_smoke(str(tmp_path / "smoke-wal"), jobs=4, seed=7)
    assert report["recovered_jobs"] == 4
    assert report["deduplicated"] == 4
    assert report["graceful_exit"] == 0
