"""A minimal asyncio client for the scheduler daemon.

Raw ``asyncio.open_connection`` HTTP/1.1 — the same zero-dependency
stance as the daemon.  Connections persist: a request takes an idle
pooled connection (or opens one), reads the response by its
``Content-Length`` and returns the connection to the pool unless either
side said ``Connection: close``, so the pool holds one connection per
concurrent caller; :meth:`ServiceClient.aclose` (or ``async with``)
closes it.  A pooled connection is reused only while idle for less than
the daemon's idle deadline minus ``_IDLE_MARGIN_SECONDS``.  Error
responses are lifted back into :class:`ServiceRequestError`, so callers
branch on the typed ``code`` exactly as in-process callers branch on
:class:`~repro.errors.ServiceError` subclasses.

Transport failures — connection refused, a connection reset mid-body, a
torn or unparseable response — surface as
:class:`ServiceUnavailableError` carrying the attempt count, never a raw
``OSError``, ``ValueError`` or ``IndexError``.  Only idempotent requests
are ever sent twice: reads, cancels, and submits that carry an
idempotency key (auto-generated when retries are enabled, deduplicated
server-side, so a retry after an ambiguous crash never double-admits).
One that fails on a *reused* connection — the daemon dropped it, or
restarted, while it sat in the pool — is re-sent at once on a fresh
connection without using up an attempt; with ``retries > 0`` other
failures are retried under seeded exponential backoff with jitter.
``/tick`` and ``/chaos/solver-fault`` are never sent twice: a lost
response leaves it ambiguous whether the clock advanced or the fault
was journaled.

Used by the integration tests and by :mod:`repro.service.smoke` (the CI
jobs that replay a scenario — or survive a ``kill -9`` — through the
HTTP API and diff the outcome digest).
"""

from __future__ import annotations

import asyncio
import json
import os
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.service.daemon import _IDLE_SECONDS

__all__ = ["ServiceClient", "ServiceRequestError", "ServiceUnavailableError"]

#: How much sooner than the daemon's idle deadline the client gives up
#: on a pooled connection: covers the deadline and the request racing.
_IDLE_MARGIN_SECONDS = 1.0
_REUSE_SECONDS = _IDLE_SECONDS - _IDLE_MARGIN_SECONDS

_Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


class ServiceRequestError(ReproError):
    """A request the daemon rejected, with its typed error surface."""

    def __init__(self, status: int, code: str, message: str) -> None:
        self.status = status
        self.code = code
        super().__init__(f"[{status} {code}] {message}")


class ServiceUnavailableError(ReproError):
    """The daemon could not be reached, or hung up mid-response.

    Raised after every allowed attempt failed; ``attempts`` counts how
    many were made so callers (and tests) can see the retry behaviour.
    """

    def __init__(self, message: str, *, attempts: int) -> None:
        self.attempts = attempts
        super().__init__(
            f"service unavailable after {attempts} attempt"
            f"{'s' if attempts != 1 else ''}: {message}")


async def _close(writer: asyncio.StreamWriter) -> None:
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass


async def _head_line(reader: asyncio.StreamReader) -> str:
    """One line of a response head; a line cut short tears the response."""
    try:
        return (await reader.readuntil(b"\n")).decode("latin-1").strip()
    except asyncio.IncompleteReadError as exc:
        # The daemon died (or closed the connection) mid-answer — or,
        # with ``partial`` empty, before answering at all.
        raise ConnectionResetError("connection closed inside the response "
                                   f"head, after {exc.partial!r}") from None
    except asyncio.LimitOverrunError as exc:
        raise ConnectionError(f"malformed response: {exc}") from None


async def _read_response(reader: asyncio.StreamReader
                         ) -> Tuple[int, str, bytes, bool]:
    """(status, content type, body, keep-alive) of one response; a torn
    or unparseable one raises ``ConnectionError``."""
    status_line = await _head_line(reader)
    version, _, rest = status_line.partition(" ")
    code = rest.split(" ", 1)[0]
    if not (version.startswith("HTTP/") and code.isascii()
            and code.isdigit()):
        raise ConnectionError(f"malformed status line {status_line!r}")
    keep_alive = version == "HTTP/1.1"
    content_type = ""
    length: Optional[int] = None
    while True:
        line = await _head_line(reader)
        if not line:
            break
        key, _, value = line.partition(":")
        key, value = key.strip().lower(), value.strip()
        if key == "content-type":
            content_type = value
        elif key == "content-length":
            if not (value.isascii() and value.isdigit()):
                raise ConnectionError(f"malformed Content-Length {value!r}")
            length = int(value)
        elif key == "connection":
            keep_alive = "close" not in value.lower()
    if length is None:  # the daemon sends one with every non-stream answer
        raise ConnectionError("malformed response without Content-Length")
    try:
        raw = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ConnectionResetError(f"truncated body: got {len(exc.partial)} "
                                   f"of {length} bytes") from None
    return int(code), content_type, raw, keep_alive


class ServiceClient:
    """Talk to one daemon at ``host:port``; all methods are coroutines."""

    def __init__(self, host: str, port: int, *, retries: int = 0,
                 backoff_base: float = 0.05, backoff_cap: float = 2.0,
                 seed: int = 0) -> None:
        self.host = host
        self.port = port
        self.retries = int(retries)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._rng = np.random.default_rng(seed)
        #: Idle keep-alive connections, each with the loop time it was
        #: returned at; the most recently used is reused first.
        self._pool: List[Tuple[_Connection, float]] = []

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, *_exc: Any) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Close every pooled connection (call with no request in flight)."""
        pool, self._pool = self._pool, []
        for (_reader, writer), _since in pool:
            await _close(writer)

    # -- transport -------------------------------------------------------

    async def _checkout(self) -> Tuple[_Connection, bool]:
        """A connection to send on, and whether it is a reused one."""
        now = asyncio.get_running_loop().time()
        while self._pool:
            (reader, writer), since = self._pool.pop()
            if (now - since < _REUSE_SECONDS and not reader.at_eof()
                    and not writer.is_closing()):
                return (reader, writer), True
            await _close(writer)  # the daemon has closed it, or soon will
        return await asyncio.open_connection(self.host, self.port), False

    async def _exchange(self, connection: _Connection, request: bytes
                        ) -> Tuple[int, str, bytes]:
        """Send one request and read its response; pool the connection
        again when both sides keep it alive, else close it."""
        reader, writer = connection
        try:
            writer.write(request)
            await writer.drain()
            status, content_type, raw, keep_alive = \
                await _read_response(reader)
        except BaseException:
            await _close(writer)
            raise
        if keep_alive:
            self._pool.append((connection, asyncio.get_running_loop().time()))
        else:
            await _close(writer)
        return status, content_type, raw

    async def _request_once(self, method: str, path: str,
                            payload: Optional[Any], idempotent: bool
                            ) -> Tuple[int, str, bytes]:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else b"")
        request = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1") + body
        connection, reused = await self._checkout()
        try:
            return await self._exchange(connection, request)
        except OSError:  # ConnectionError included
            if not (reused and idempotent):
                raise
        # A pooled connection the daemon had dropped (idle deadline,
        # restart): the request is safe to send again, on a new one.
        connection = await asyncio.open_connection(self.host, self.port)
        return await self._exchange(connection, request)

    async def request(self, method: str, path: str,
                      payload: Optional[Any] = None, *,
                      idempotent: bool = True) -> Tuple[int, str, bytes]:
        """One logical round trip; returns (status, content-type, body).

        Transport failures raise :class:`ServiceUnavailableError`; when
        ``idempotent`` (and ``retries`` allows) they are retried first
        under capped exponential backoff with seeded jitter.
        """
        attempts = self.retries + 1 if idempotent else 1
        last: Optional[BaseException] = None
        for attempt in range(1, attempts + 1):
            try:
                return await self._request_once(method, path, payload,
                                                idempotent)
            except OSError as exc:  # ConnectionError included
                last = exc
                if attempt < attempts:
                    delay = min(self.backoff_cap,
                                self.backoff_base * 2 ** (attempt - 1))
                    # Jitter in [0.5, 1.0)x keeps retry storms apart
                    # without ever exceeding the cap.
                    await asyncio.sleep(
                        delay * (0.5 + float(self._rng.random()) / 2))
        raise ServiceUnavailableError(str(last), attempts=attempts) from last

    async def request_json(self, method: str, path: str,
                           payload: Optional[Any] = None, *,
                           idempotent: bool = True) -> Any:
        """A JSON round trip; error responses raise the typed exception."""
        status, _ctype, raw = await self.request(method, path, payload,
                                                 idempotent=idempotent)
        data = json.loads(raw.decode("utf-8")) if raw else None
        if status >= 400:
            error = (data or {}).get("error", {}) if isinstance(data, dict) \
                else {}
            raise ServiceRequestError(
                status, str(error.get("code", "unknown")),
                str(error.get("message", raw.decode("utf-8", "replace"))))
        return data

    # -- endpoints -------------------------------------------------------

    async def healthz(self) -> Dict[str, Any]:
        return await self.request_json("GET", "/healthz")

    async def status(self) -> Dict[str, Any]:
        return await self.request_json("GET", "/status")

    async def tenants(self) -> Dict[str, Any]:
        return await self.request_json("GET", "/tenants")

    async def submit(self, payload: Dict[str, Any], *,
                     idempotency_key: Optional[str] = None
                     ) -> Dict[str, Any]:
        """Submit a job; safe to retry exactly when it carries a key.

        With ``retries`` enabled and no caller-chosen key, one is
        generated (``os.urandom``, not the seeded rng — two clients
        sharing a default seed must never collide on keys) so the
        retry loop can re-send the submit without double-admitting.
        """
        body = dict(payload)
        if idempotency_key is not None:
            body["idempotency_key"] = idempotency_key
        elif self.retries > 0 and "idempotency_key" not in body:
            body["idempotency_key"] = f"auto-{os.urandom(8).hex()}"
        return await self.request_json(
            "POST", "/jobs", body,
            idempotent="idempotency_key" in body)

    async def jobs(self) -> List[Dict[str, Any]]:
        return (await self.request_json("GET", "/jobs"))["jobs"]

    async def job(self, job_id: str) -> Dict[str, Any]:
        return await self.request_json("GET", f"/jobs/{job_id}")

    async def cancel(self, job_id: str) -> Dict[str, Any]:
        return await self.request_json("DELETE", f"/jobs/{job_id}")

    async def tick(self, slots: int = 1) -> Dict[str, Any]:
        # Never retried: a lost response leaves the slot advance
        # ambiguous, and re-ticking is not idempotent.
        return await self.request_json("POST", "/tick", {"slots": slots},
                                       idempotent=False)

    async def chaos_solver_fault(self, depth: int = 1) -> Dict[str, Any]:
        # Never re-sent: each call journals one more solver fault.
        return await self.request_json("POST", "/chaos/solver-fault",
                                       {"depth": depth}, idempotent=False)

    async def metrics_text(self) -> str:
        status, _ctype, raw = await self.request("GET", "/metrics")
        if status != 200:
            raise ServiceRequestError(status, "metrics", raw.decode())
        return raw.decode("utf-8")

    async def stream(self, count: int) -> List[Dict[str, Any]]:
        """Collect ``count`` NDJSON status lines from ``/stream``.

        The stream has its own connection, which stays open across slots
        (so in manual-clock mode something else must drive ``/tick``
        concurrently) and closes with the stream.
        """
        reader, writer = await asyncio.open_connection(self.host, self.port)
        try:
            writer.write((
                f"GET /stream?count={count} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                "Connection: close\r\n\r\n").encode("latin-1"))
            await writer.drain()
            while True:  # skip the response headers
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            payloads: List[Dict[str, Any]] = []
            while len(payloads) < count:
                line = await reader.readline()
                if not line:
                    break
                payloads.append(json.loads(line.decode("utf-8")))
            return payloads
        finally:
            await _close(writer)
