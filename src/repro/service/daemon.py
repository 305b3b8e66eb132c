"""The asyncio scheduler daemon: HTTP in front, the engine behind.

A deliberately small HTTP/1.1 server built directly on
``asyncio.start_server`` — no web framework, one JSON request/response
per connection (``Connection: close``), plus an NDJSON status stream.
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
POST      /snapshot                take (and persist) a restart snapshot
POST      /chaos/solver-fault      arm a forced solver failure (``--chaos``)
========  =======================  ==========================================

Every rejected request returns the typed error body from
:func:`repro.service.protocol.error_payload`; a 500 with code
``internal`` always indicates a daemon bug, never a bad request.

Two clock modes:

* **manual** (no real-time clock): time advances only through
  ``POST /tick``.  This is the driveable-clock mode integration tests
  and digest-equivalence smoke checks use — fully deterministic.
* **real-time** (:class:`~repro.service.clock.RealTimeClock`): a
  background loop awaits each slot boundary and ticks the engine, so
  the daemon schedules in wall time while the core stays slot-indexed.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import BadRequestError, ConfigurationError, ServiceError
from repro.obs import get_metrics
from repro.service.clock import RealTimeClock
from repro.service.engine import ServiceEngine
from repro.service.protocol import error_payload
from repro.service.snapshot import save_snapshot, take_snapshot

__all__ = ["ServiceDaemon"]

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: far above any legitimate submit body
_STREAM_QUEUE_SLOTS = 256
_DRAIN_SECONDS = 5.0  # how long stop() waits for in-flight requests


class ServiceDaemon:
    """Serve one :class:`ServiceEngine` over HTTP until stopped."""

    def __init__(self, engine: ServiceEngine, *,
                 clock: Optional[RealTimeClock] = None,
                 chaos: bool = False,
                 snapshot_path: Optional[str] = None) -> None:
        if clock is not None and engine.clock is not clock:
            # A divergent pair would tick the engine on a clock that
            # never advances — construct the engine with this clock.
            raise ConfigurationError(
                "daemon clock must be the engine's own clock "
                "(pass it to ServiceEngine/restore_engine too)")
        self.engine = engine
        self.clock = clock
        self.chaos = chaos
        self.snapshot_path = snapshot_path
        self._server: Optional[asyncio.AbstractServer] = None
        self._slot_task: Optional[asyncio.Task] = None
        #: ``ok`` | ``stalled: <code>`` | ``dead: <Type>: …`` (``/status``).
        self._slot_loop_state = "ok"
        self._subscribers: List[asyncio.Queue] = []
        self._inflight: set = set()  # connection-handler tasks being served
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
        streams get their end-sentinel; then every in-flight request
        handler is awaited (bounded by ``_DRAIN_SECONDS``) so an accepted
        submit is fully journaled and answered before the process exits.
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
        task = asyncio.current_task()
        if task is not None:
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        try:
            try:
                method, path, query, body = await self._read_request(reader)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            except (BadRequestError, ValueError) as exc:
                # ValueError: readline() on an over-long line, or a
                # Content-Length that is not a non-negative integer.
                await self._respond(writer, 400, error_payload(
                    exc if isinstance(exc, BadRequestError) else
                    BadRequestError(f"malformed request: {exc}")))
                return
            await self._dispatch(writer, method, path, query, body)
        except ConnectionError:
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, List[str]], bytes]:
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split(" ")
        if len(parts) != 3:
            raise BadRequestError(f"malformed request line {request_line!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = (await reader.readline()).decode("latin-1").strip()
            if not line:
                break
            if ":" in line:
                key, _, value = line.partition(":")
                headers[key.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise BadRequestError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return method.upper(), split.path, parse_qs(split.query), body

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
                       payload: Any, *,
                       content_type: str = "application/json") -> None:
        if content_type == "application/json":
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
            "Connection: close\r\n\r\n").encode("latin-1"))
        writer.write(blob)
        await writer.drain()

    # -- routing ---------------------------------------------------------

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        path: str, query: Dict[str, List[str]],
                        body: bytes) -> None:
        try:
            handled = await self._route(writer, method, path, query, body)
        except ServiceError as exc:
            await self._respond(writer, exc.status, error_payload(exc))
            return
        except Exception as exc:  # a daemon bug, surfaced honestly
            await self._respond(writer, 500, {"error": {
                "code": "internal", "status": 500,
                "message": f"{type(exc).__name__}: {exc}"}})
            return
        if not handled:
            await self._respond(writer, 404, {"error": {
                "code": "not-found", "status": 404,
                "message": f"no route for {method} {path}"}})

    async def _route(self, writer: asyncio.StreamWriter, method: str,
                     path: str, query: Dict[str, List[str]],
                     body: bytes) -> bool:
        engine = self.engine
        if path == "/healthz" and method == "GET":
            await self._respond(writer, 200, {"ok": True,
                                              "slot": engine.slot})
        elif path == "/status" and method == "GET":
            status = engine.cluster_status()
            status["service"] = self._service_status()
            await self._respond(writer, 200, status)
        elif path == "/tenants" and method == "GET":
            await self._respond(writer, 200, engine.registry.status())
        elif path == "/jobs" and method == "POST":
            await self._respond(writer, 200,
                                engine.submit(self._json_body(body)))
        elif path == "/jobs" and method == "GET":
            await self._respond(writer, 200, {"jobs": engine.list_jobs()})
        elif path.startswith("/jobs/"):
            await self._route_job(writer, method, path)
        elif path == "/tick" and method == "POST":
            if self.clock is not None:
                raise BadRequestError(
                    "manual ticking is disabled: this daemon runs on a "
                    "real-time clock")
            payload = self._json_body(body) if body else {}
            slots = payload.get("slots", 1)
            if not isinstance(slots, int) or isinstance(slots, bool):
                raise BadRequestError("field 'slots' must be an integer")
            await self._respond(writer, 200, self._do_tick(slots))
        elif path == "/digest" and method == "GET":
            await self._respond(writer, 200, {
                "slot": engine.slot,
                "records": engine.records_digest(),
                "decisions": engine.decisions_digest(),
                "idle": engine.idle})
        elif path == "/metrics" and method == "GET":
            await self._respond(
                writer, 200, get_metrics().render_prometheus(),
                content_type="text/plain; version=0.0.4")
        elif path == "/stream" and method == "GET":
            await self._stream(writer, query)
        elif path == "/snapshot" and method == "POST":
            snapshot = take_snapshot(engine)
            if self.snapshot_path is not None:
                save_snapshot(engine, self.snapshot_path)
                snapshot["saved_to"] = self.snapshot_path
            await self._respond(writer, 200, snapshot)
        elif path == "/chaos/solver-fault" and method == "POST":
            if not self.chaos:
                raise BadRequestError(
                    "chaos endpoints are disabled; start the daemon "
                    "with chaos enabled to use them")
            payload = self._json_body(body) if body else {}
            depth = payload.get("depth", 1)
            await self._respond(writer, 200,
                                engine.inject_solver_fault(depth))
        else:
            return False
        return True

    async def _route_job(self, writer: asyncio.StreamWriter, method: str,
                         path: str) -> None:
        tail = path[len("/jobs/"):]
        if method == "GET" and "/" not in tail and tail:
            await self._respond(writer, 200, self.engine.job_status(tail))
        elif method == "DELETE" and "/" not in tail and tail:
            await self._respond(writer, 200, self.engine.cancel(tail))
        else:
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

    async def _stream(self, writer: asyncio.StreamWriter,
                      query: Dict[str, List[str]]) -> None:
        """NDJSON per-slot status until ``count`` lines or disconnect."""
        count_values = query.get("count", [])
        limit: Optional[int] = None
        if count_values:
            try:
                limit = int(count_values[0])
            except ValueError:
                raise BadRequestError(
                    "query parameter 'count' must be an integer") from None
            if limit < 1:
                raise BadRequestError("'count' must be >= 1")
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        try:
            writer.write((
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
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
