"""The asyncio scheduler daemon: HTTP in front, the engine behind.

A deliberately small HTTP/1.1 server built directly on
``asyncio.start_server`` — no web framework, JSON requests and responses
on persistent connections, plus an NDJSON status stream.
All scheduling state lives in the single-threaded
:class:`~repro.service.engine.ServiceEngine`; handlers run on the event
loop and never await while mutating it, so the engine needs no locks.

Endpoints
---------

========  =======================  ==========================================
method    path                     action
========  =======================  ==========================================
GET       /healthz                 liveness + current slot
GET       /status                  cluster summary (slot, queues, tenants)
GET       /tenants                 tenant shares, quotas and live counts
POST      /jobs                    submit a job (trace-record payload)
GET       /jobs                    list every known job's status
GET       /jobs/{id}               one job's status (state + degradation)
DELETE    /jobs/{id}               cancel
POST      /tick                    advance N slots (manual-clock mode only)
GET       /stream                  NDJSON per-slot status; ``?count=N`` bounds
GET       /digest                  canonical records/decisions digests
GET       /metrics                 Prometheus text exposition
POST      /chaos/solver-fault      arm a forced solver failure (``--chaos``)
========  =======================  ==========================================

One connection serves requests in order, and every response states
``Connection: keep-alive`` or ``Connection: close``.  The daemon closes
a connection after a request that asked for it (``Connection: close``,
or HTTP/1.0 without ``keep-alive``), after ``/stream``, after a framing
error (answered with a typed 400 first: a malformed request line, any
``Transfer-Encoding``, a repeated or non-integer ``Content-Length``, an
oversized line or body — bytes that cannot be framed must never be
parsed as the next request), while stopping, and when no complete
request arrives within ``_IDLE_SECONDS`` — a deadline that covers the
whole read of every request, so a stalled half-request is dropped too.

Every rejected request returns the typed error body from
:func:`repro.service.protocol.error_payload`; a 500 with code
``internal`` always indicates a daemon bug, never a bad request.

Two clock modes, chosen by the engine's own clock:

* **manual** (any other clock): time advances only through
  ``POST /tick``.  This is the driveable-clock mode integration tests
  and digest-equivalence smoke checks use — fully deterministic.
* **real-time** (the engine runs on a
  :class:`~repro.service.clock.RealTimeClock`): a background loop
  awaits each slot boundary and ticks the engine, so the daemon
  schedules in wall time while the core stays slot-indexed.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import BadRequestError, ServiceError
from repro.obs import get_metrics
from repro.service.clock import RealTimeClock
from repro.service.engine import ServiceEngine
from repro.service.protocol import error_payload
# ``take_snapshot`` is no longer called here, but the perf ledger's
# tracer (benchmarks/ledger/tracing.py) rebinds it on this module by
# name, so the name stays until that tracer wraps layers, not symbols
# (ROADMAP 10(ii)).
from repro.service.snapshot import take_snapshot  # noqa: F401

__all__ = ["ServiceDaemon"]

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: far above any legitimate submit body
_STREAM_QUEUE_SLOTS = 256
_DRAIN_SECONDS = 5.0  # how long stop() waits for in-flight requests
#: How long a connection may take to deliver its next complete request
#: (idle keep-alive time included) before the daemon closes it.
#: ``ServiceClient`` stops reusing a pooled connection a margin earlier.
_IDLE_SECONDS = 5.0
_JSON = "application/json"
_NDJSON = "application/x-ndjson"


class ServiceDaemon:
    """Serve one :class:`ServiceEngine` over HTTP until stopped."""

    def __init__(self, engine: ServiceEngine, *,
                 chaos: bool = False) -> None:
        self.engine = engine
        #: The slot loop's pacing clock: the engine's own, in real-time
        #: mode; None in manual mode.
        self.clock: Optional[RealTimeClock] = (
            engine.clock if isinstance(engine.clock, RealTimeClock)
            else None)
        self.chaos = chaos
        self._server: Optional[asyncio.AbstractServer] = None
        self._slot_task: Optional[asyncio.Task] = None
        #: ``ok`` | ``stalled: <code>`` | ``dead: <Type>: …`` (``/status``).
        self._slot_loop_state = "ok"
        self._subscribers: List[asyncio.Queue] = []
        self._inflight: set = set()  # every live connection-handler task
        #: Connections waiting for (the rest of) a request: nothing of
        #: theirs is in flight, so stop() closes them at once.
        self._reading: set = set()
        self._closing = False

    # -- lifecycle -------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind the listener and, in real-time mode, start the slot loop."""
        self._server = await asyncio.start_server(self._handle, host, port)
        if self.clock is not None:
            self.clock.rebase()
            self._slot_task = asyncio.get_running_loop().create_task(
                self._slot_loop())

    async def stop(self) -> None:
        """Graceful shutdown: drain, then flush everything durable.

        Order matters.  The listener closes first so no new connections
        arrive; the slot loop stops so the engine state is quiescent;
        streams get their end-sentinel; connections waiting for a request
        (idle keep-alive ones, and any stalled mid-request) are closed at
        once; then every in-flight request handler is awaited (bounded by
        ``_DRAIN_SECONDS``) so an accepted submit is fully journaled and
        answered — with ``Connection: close`` — before the process exits.
        Only then does ``engine.close()`` fsync and close the journal.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
        if self._slot_task is not None:
            self._slot_task.cancel()
            try:
                await self._slot_task
            except asyncio.CancelledError:
                pass
            self._slot_task = None
        for queue in list(self._subscribers):
            queue.put_nowait(None)  # sentinel: stream handlers drain out
        for writer in self._reading:
            writer.close()
        pending = {task for task in self._inflight if not task.done()}
        if pending:
            _done, stuck = await asyncio.wait(pending,
                                              timeout=_DRAIN_SECONDS)
            for task in stuck:  # a hung client must not wedge shutdown
                task.cancel()
            if stuck:
                await asyncio.gather(*stuck, return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        self.engine.close()

    async def _slot_loop(self) -> None:
        assert self.clock is not None
        while not self._closing:
            await self.clock.wait_for_next_slot()
            try:
                self._do_tick(1)
            except ServiceError as exc:
                # Refused before it was applied (the journal could not
                # take the tick): the slot waits for the next boundary.
                # Its own boundary is already past, so sleep the slot
                # out here rather than spin.
                self._slot_loop_state = f"stalled: {exc.code}"
                await asyncio.sleep(self.clock.slot_seconds)
            except Exception as exc:  # a daemon bug: the clock ends, loudly
                self._slot_loop_state = f"dead: {type(exc).__name__}: {exc}"
                return
            else:
                self._slot_loop_state = "ok"

    def _do_tick(self, slots: int) -> Dict[str, Any]:
        status = self.engine.tick(slots)
        for queue in self._subscribers:
            if queue.qsize() < _STREAM_QUEUE_SLOTS:  # drop on slow readers
                queue.put_nowait(status)
        return status

    # -- HTTP plumbing ---------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        """Serve one connection's requests, in order, until it closes."""
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        # drain() then waits for an empty buffer, not a low-water mark: a
        # response is wholly handed to the kernel before the next read,
        # so closing a connection that waits for a request (idle
        # deadline, stop()) can never cut off the previous answer.
        writer.transport.set_write_buffer_limits(0)
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader, writer)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # EOF (or a torn request): nothing to answer
                except (BadRequestError, asyncio.LimitOverrunError,
                        ValueError) as exc:
                    # LimitOverrunError: an over-long line; ValueError: a
                    # target urlsplit() refuses.  The rest of the bytes
                    # cannot be framed: answer, then close.
                    await self._respond(writer, 400, error_payload(
                        exc if isinstance(exc, BadRequestError) else
                        BadRequestError(f"malformed request: {exc}")),
                        keep_alive=False)
                    return
                if request is None:
                    return
                method, path, query, body, keep_alive = request
                status, payload, content_type = self._answer(
                    method, path, query, body)
                if content_type == _NDJSON:  # payload: the line limit
                    await self._stream(writer, payload)
                    return
                keep_alive = keep_alive and not self._closing
                await self._respond(writer, status, payload,
                                    content_type=content_type,
                                    keep_alive=keep_alive)
                if not keep_alive:
                    return
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter
                            ) -> Optional[Tuple[str, str, Dict[str, List[str]],
                                                bytes, bool]]:
        """Read and frame the next request: (method, path, query, body,
        keep-alive); ``None`` when the connection closed under the read.

        The whole read runs under the ``_IDLE_SECONDS`` deadline, and
        ``stop()`` may cut it short: both close the connection, and a
        request the read completed anyway is dropped unexecuted.  Every
        line must end in ``\\n``: EOF inside a request is
        ``IncompleteReadError``, never a shorter request.
        """
        deadline = asyncio.get_running_loop().call_later(
            _IDLE_SECONDS, writer.close)
        self._reading.add(writer)
        try:
            request_line = (await reader.readuntil(b"\n")).decode(
                "latin-1").strip()
            parts = request_line.split(" ")
            if len(parts) != 3 or parts[2] not in ("HTTP/1.0", "HTTP/1.1"):
                raise BadRequestError(
                    f"malformed request line {request_line!r}")
            method, target, version = parts
            headers: Dict[str, List[str]] = {}
            while True:
                line = (await reader.readuntil(b"\n")).decode(
                    "latin-1").strip()
                if not line:
                    break
                key, colon, value = line.partition(":")
                if colon:
                    headers.setdefault(key.strip().lower(), []).append(
                        value.strip())
            if "transfer-encoding" in headers:
                raise BadRequestError(
                    "Transfer-Encoding is not supported: send the body "
                    "with one Content-Length")
            lengths = headers.get("content-length", ["0"])
            if len(lengths) != 1 or not (lengths[0].isascii()
                                         and lengths[0].isdigit()):
                raise BadRequestError(
                    "Content-Length must be one non-negative integer, got "
                    f"{', '.join(lengths)!r}")
            length = int(lengths[0])
            if length > _MAX_BODY_BYTES:
                raise BadRequestError(
                    f"request body of {length} bytes exceeds the "
                    f"{_MAX_BODY_BYTES}-byte limit")
            body = await reader.readexactly(length) if length else b""
        finally:
            deadline.cancel()
            self._reading.discard(writer)
        if writer.is_closing():
            return None
        tokens = {token.strip().lower()
                  for value in headers.get("connection", [])
                  for token in value.split(",")}
        keep_alive = "close" not in tokens and (
            version == "HTTP/1.1" or "keep-alive" in tokens)
        split = urlsplit(target)
        return (method.upper(), split.path, parse_qs(split.query), body,
                keep_alive)

    @staticmethod
    def _json_body(body: bytes) -> Dict[str, Any]:
        """The request body as a JSON object — the only body any route takes."""
        if not body:
            raise BadRequestError("request requires a JSON body")
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise BadRequestError("body must be a JSON object")
        return payload

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: Any, *, content_type: str = _JSON,
                       keep_alive: bool) -> None:
        if content_type == _JSON:
            blob = (json.dumps(payload, sort_keys=True) + "\n").encode()
        else:
            blob = str(payload).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 409: "Conflict",
                  429: "Too Many Requests"}.get(status, "Error")
        writer.write((
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(blob)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        ).encode("latin-1") + blob)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    def _answer(self, method: str, path: str, query: Dict[str, List[str]],
                body: bytes) -> Tuple[int, Any, str]:
        """(status, payload, content type) for one request; never raises."""
        try:
            answer = self._route(method, path, query, body)
        except ServiceError as exc:
            return exc.status, error_payload(exc), _JSON
        except Exception as exc:  # a daemon bug, surfaced honestly
            return 500, {"error": {
                "code": "internal", "status": 500,
                "message": f"{type(exc).__name__}: {exc}"}}, _JSON
        if answer is None:
            return 404, {"error": {
                "code": "not-found", "status": 404,
                "message": f"no route for {method} {path}"}}, _JSON
        payload, content_type = answer
        return 200, payload, content_type

    def _route(self, method: str, path: str, query: Dict[str, List[str]],
               body: bytes) -> Optional[Tuple[Any, str]]:
        """(payload, content type) of the route's 200, ``None`` for no
        route; a rejected request raises its typed error."""
        engine = self.engine
        if path == "/healthz" and method == "GET":
            return {"ok": True, "slot": engine.slot}, _JSON
        if path == "/status" and method == "GET":
            status = engine.cluster_status()
            status["service"] = self._service_status()
            return status, _JSON
        if path == "/tenants" and method == "GET":
            return engine.registry.status(), _JSON
        if path == "/jobs" and method == "POST":
            return engine.submit(self._json_body(body)), _JSON
        if path == "/jobs" and method == "GET":
            return {"jobs": engine.list_jobs()}, _JSON
        if path.startswith("/jobs/"):
            return self._route_job(method, path), _JSON
        if path == "/tick" and method == "POST":
            if self.clock is not None:
                raise BadRequestError(
                    "manual ticking is disabled: this daemon runs on a "
                    "real-time clock")
            payload = self._json_body(body) if body else {}
            slots = payload.get("slots", 1)
            if not isinstance(slots, int) or isinstance(slots, bool):
                raise BadRequestError("field 'slots' must be an integer")
            return self._do_tick(slots), _JSON
        if path == "/digest" and method == "GET":
            return {"slot": engine.slot,
                    "records": engine.records_digest(),
                    "decisions": engine.decisions_digest(),
                    "idle": engine.idle}, _JSON
        if path == "/metrics" and method == "GET":
            return (get_metrics().render_prometheus(),
                    "text/plain; version=0.0.4")
        if path == "/stream" and method == "GET":
            return self._stream_limit(query), _NDJSON
        if path == "/chaos/solver-fault" and method == "POST":
            if not self.chaos:
                raise BadRequestError(
                    "chaos endpoints are disabled; start the daemon "
                    "with chaos enabled to use them")
            payload = self._json_body(body) if body else {}
            return engine.inject_solver_fault(payload.get("depth", 1)), _JSON
        return None

    def _route_job(self, method: str, path: str) -> Dict[str, Any]:
        tail = path[len("/jobs/"):]
        if method == "GET" and "/" not in tail and tail:
            return self.engine.job_status(tail)
        if method == "DELETE" and "/" not in tail and tail:
            return self.engine.cancel(tail)
        raise BadRequestError(f"no job route for {method} /jobs/{tail}")

    def _service_status(self) -> Dict[str, Any]:
        mode = "manual" if self.clock is None else "realtime"
        status: Dict[str, Any] = {
            "mode": mode, "chaos": self.chaos,
            "streams": len(self._subscribers),
            "housekeeping_failure": self.engine.housekeeping_failure}
        if self.clock is not None:
            status["slot_seconds"] = self.clock.slot_seconds
            status["uptime_seconds"] = self.clock.uptime_seconds()
            status["slot_loop"] = self._slot_loop_state
        return status

    # -- streaming -------------------------------------------------------

    @staticmethod
    def _stream_limit(query: Dict[str, List[str]]) -> Optional[int]:
        """``/stream``'s ``?count=N`` line limit (``None``: unbounded)."""
        count_values = query.get("count", [])
        if not count_values:
            return None
        try:
            limit = int(count_values[0])
        except ValueError:
            raise BadRequestError(
                "query parameter 'count' must be an integer") from None
        if limit < 1:
            raise BadRequestError("'count' must be >= 1")
        return limit

    async def _stream(self, writer: asyncio.StreamWriter,
                      limit: Optional[int]) -> None:
        """NDJSON per-slot status until ``limit`` lines or disconnect.

        The response has no length, so the connection closes after it.
        """
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                f"Content-Type: {_NDJSON}\r\n"
                "Connection: close\r\n\r\n").encode("latin-1"))
            sent = 0
            # The current state first, so a subscriber is never blind
            # until the next slot boundary.
            payload: Optional[Dict[str, Any]] = self.engine.cluster_status()
            while payload is not None:  # None = daemon is stopping
                writer.write(
                    (json.dumps(payload, sort_keys=True) + "\n").encode())
                await writer.drain()
                sent += 1
                if limit is not None and sent >= limit:
                    return
                payload = await queue.get()
        finally:
            self._subscribers.remove(queue)
