"""The open-loop driver for the three service workloads.

The unit under test is the real program — ``python -m repro.cli serve
--manual --journal-dir D`` as a subprocess — driven through
:class:`repro.service.client.ServiceClient` from one single-threaded
asyncio process.  A pacer posts ``/tick`` every 0.2 s; the rest of the
schedule goes out on the request lanes at its due times; **every latency
is timed from the due time**, so a stall charges the requests queued
behind it.  After the window the server is ``SIGKILL``\\ ed, restarted on
the journal it left behind, and must come back with the same digests and
every acknowledged job.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import deque
from pathlib import Path
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro import obs
from repro.errors import JobStateError
from repro.service.client import (ServiceClient, ServiceRequestError,
                                  ServiceUnavailableError)
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.journal import RealFileOps, open_journal

import tracing
from attribution import SpanTable, per_layer, percentile
from schedule import (SLOT_SECONDS, build_schedule, by_slot, offered_share,
                      preload_jobs)

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
SRC = REPO_ROOT / "src"

SCHEDULER_OPTIONS = {"theta": 0.9, "delta": 0.7}
READ_MIX = (("job", 0.90), ("status", 0.08), ("metrics", 0.01), ("jobs", 0.01))
_API_RATES = {"submit_rate": 25.0, "cancel_rate": 5.0}

#: name -> shape of the workload.  ``warmup`` seconds of the same traffic
#: run before the measured window so it opens on a steady fleet.
SERVICE_WORKLOADS: Dict[str, Dict[str, Any]] = {
    "steady-fleet": {"capacity": 48, "preload": 200, "history_slots": 0,
                     "submit_rate": 10.0, "cancel_rate": 2.0,
                     "read_rate": 20.0, "warmup": 4.0, "setups": 3},
    "api-mixed": {"capacity": 96, "preload": 0, "history_slots": 0,
                  **_API_RATES, "read_rate": 100.0, "warmup": 2.0,
                  "setups": 3},
    "long-uptime": {"capacity": 96, "preload": 0, "history_slots": 600,
                    **_API_RATES, "read_rate": 10.0, "warmup": 2.0,
                    "setups": 1},
}

QUICK_HISTORY_SLOTS = 200
MAX_LATE_P99_MS = 20.0
MAX_FLEET_DRIFT = 0.25
#: Arriving container-work per slot over capacity; above it the fleet
#: runs away and the numbers describe the backlog, not the program.
MAX_OFFERED_SHARE = 0.6
READY_TIMEOUT = 120.0
REPEAT_RECOVERY_BELOW = 3.0


class InvalidRun(Exception):
    """The run broke a validity guard: report it invalid, not slow."""


def now() -> float:
    return time.perf_counter()


def make_tmp_root() -> Path:
    """One scratch root inside the checkout; the caller removes it."""
    base = REPO_ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="ledger-", dir=base))


# ---------------------------------------------------------------------------
# The server subprocess
# ---------------------------------------------------------------------------

def _die_with_parent() -> None:
    """In the child: ``prctl(PR_SET_PDEATHSIG, SIGKILL)`` — a server must
    not outlive a driver that was itself killed."""
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


class Server:
    """One ``rush serve`` subprocess on a journal directory."""

    def __init__(self, journal_dir: Path, capacity: int, *,
                 span_path: Optional[Path] = None) -> None:
        self.journal_dir = journal_dir
        self.capacity = capacity
        self.span_path = span_path
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.port = 0
        self.client: Optional[ServiceClient] = None

    def _argv(self) -> List[str]:
        serve = ["serve", "--manual", "--port", "0", "--policy", "rush",
                 "--capacity", str(self.capacity),
                 "--scheduler-options", json.dumps(SCHEDULER_OPTIONS),
                 "--journal-dir", str(self.journal_dir)]
        if self.span_path is not None:
            return [sys.executable, str(HERE / "traced_server.py"),
                    str(self.span_path)] + serve
        return [sys.executable, "-m", "repro.cli"] + serve

    async def start(self) -> float:
        """Spawn and wait for the first 200 on ``/healthz``; returns seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        started = now()
        self.proc = await asyncio.create_subprocess_exec(
            *self._argv(), env=env, cwd=str(REPO_ROOT),
            preexec_fn=_die_with_parent,
            stdout=asyncio.subprocess.PIPE, stderr=asyncio.subprocess.STDOUT)
        assert self.proc.stdout is not None
        banner = await asyncio.wait_for(self.proc.stdout.readline(),
                                        READY_TIMEOUT)
        text = banner.decode("utf-8", "replace")
        if "http://" not in text:
            rest = await self.proc.stdout.read()
            raise RuntimeError("server failed to start: "
                               + text + rest.decode("utf-8", "replace"))
        self.port = int(text.split("http://", 1)[1].split(" ", 1)[0]
                        .rsplit(":", 1)[1])
        self.client = ServiceClient("127.0.0.1", self.port, retries=0)
        await self.client.healthz()
        return now() - started

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """user+sys CPU of the server so far (``/proc/<pid>/stat``)."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    async def stop(self, sig: int) -> None:
        """Signal the server and reap it (idempotent)."""
        proc = self.proc
        if proc is None:
            return
        self.proc = None
        if proc.returncode is None:
            try:
                proc.send_signal(sig)
            except ProcessLookupError:
                pass
        try:
            await asyncio.wait_for(proc.communicate(), 60.0)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.communicate()


# ---------------------------------------------------------------------------
# Set-up helpers
# ---------------------------------------------------------------------------

class _NoSyncFileOps(RealFileOps):
    """Set-up only: the history is built at memory speed, never served."""

    def fsync(self, fobj: Any) -> None:
        fobj.flush()

    def fsync_dir(self, path: str) -> None:
        pass

    def write_bytes(self, path: str, data: bytes) -> None:
        with open(path, "wb") as fobj:
            fobj.write(data)


def service_config(capacity: int) -> ServiceConfig:
    """The config ``rush serve`` builds from the flags :class:`Server` passes."""
    return ServiceConfig(capacity=capacity, policy="rush", seed=0,
                         scheduler_options=dict(SCHEDULER_OPTIONS))


def apply_in_process(engine: Any, entries: Sequence[Dict[str, Any]],
                     slots: int) -> List[str]:
    """Run a write schedule straight into an engine, one tick per slot."""
    accepted: List[str] = []
    for bucket in by_slot(entries, slots):
        for entry in bucket:
            if entry["kind"] == "submit":
                engine.submit(entry["payload"])
                accepted.append(entry["job_id"])
            elif entry["kind"] == "cancel":
                try:
                    engine.cancel(entry["job_id"])
                except JobStateError:
                    pass  # raced completion: the correct refusal
        engine.tick()
    return accepted


def build_history(journal_dir: Path, seed: int, capacity: int,
                  slots: int) -> List[str]:
    """Pre-build ``slots`` slots of api-mixed's write stream as a journal."""
    entries = build_schedule(
        seed=seed + 7919, seconds=slots * SLOT_SECONDS, capacity=capacity,
        read_rate=0.0, read_mix=READ_MIX, prefix="h", **_API_RATES)
    engine, _writer = open_journal(journal_dir, service_config(capacity),
                                   file_ops=_NoSyncFileOps())
    try:
        return apply_in_process(engine, entries, slots)
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# The window
# ---------------------------------------------------------------------------

class Window:
    """Replays one schedule against a live server and records every call."""

    def __init__(self, client: ServiceClient, entries: List[Dict[str, Any]],
                 slots: int, lanes: int, warmup: float,
                 on_measure: Callable[[], None]) -> None:
        self.client = client
        self.queue: Deque[Dict[str, Any]] = deque(entries)
        self.slots = slots
        self.lanes = lanes
        self.warmup = warmup
        #: Called once, as the first measured tick falls due.
        self.on_measure = on_measure
        self.t0 = 0.0
        #: (kind, at, sent_offset, done_offset, outcome, key)
        self.records: List[Tuple[str, float, float, float, str, Any]] = []
        self.late: List[float] = []
        self.active: List[Tuple[int, int]] = []  # (slot index, active jobs)

    async def run(self) -> None:
        self.t0 = now() + 0.05
        await asyncio.gather(self._pacer(),
                             *(self._lane() for _ in range(self.lanes)))

    async def _sleep_until(self, due: float, free_at: float) -> float:
        delay = due - now()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = now()
        self.late.append(sent - max(due, free_at))
        return sent

    async def _pacer(self) -> None:
        free_at = 0.0
        for k in range(self.slots):
            at = k * SLOT_SECONDS
            sent = await self._sleep_until(self.t0 + at, free_at)
            if k == int(round(self.warmup / SLOT_SECONDS)):
                self.on_measure()
            outcome = "ok"
            try:
                status = await self.client.tick(1)
                self.active.append((k, int(status["active_jobs"])))
            except (ServiceRequestError, ServiceUnavailableError):
                outcome = "failed"
            free_at = now()
            self.records.append(("tick", at, sent - self.t0,
                                 free_at - self.t0, outcome, k))

    async def _call(self, entry: Dict[str, Any]) -> None:
        kind = entry["kind"]
        if kind == "submit":
            await self.client.submit(entry["payload"])
        elif kind == "cancel":
            await self.client.cancel(entry["job_id"])
        elif kind == "job":
            await self.client.job(entry["job_id"])
        elif kind == "status":
            await self.client.status()
        elif kind == "metrics":
            await self.client.metrics_text()
        else:
            await self.client.jobs()

    async def _lane(self) -> None:
        free_at = 0.0
        while self.queue:
            entry = self.queue.popleft()
            sent = await self._sleep_until(self.t0 + entry["at"], free_at)
            outcome = "ok"
            try:
                await self._call(entry)
            except ServiceRequestError as exc:
                # A cancel that raced the job's completion is answered
                # 409: a correct answer, counted apart from failures.
                raced = entry["kind"] == "cancel" and exc.status == 409
                outcome = "conflict" if raced else "failed"
            except ServiceUnavailableError:
                outcome = "failed"
            free_at = now()
            self.records.append((entry["kind"], entry["at"], sent - self.t0,
                                 free_at - self.t0, outcome,
                                 entry.get("job_id")))


def _latencies(records: Sequence[Tuple], kinds: Sequence[str],
               since: float) -> List[float]:
    """ms from due to done of the answered calls of ``kinds`` due after ``since``."""
    return [(done - at) * 1000.0
            for kind, at, _sent, done, outcome, _key in records
            if kind in kinds and at >= since and outcome != "failed"]


def check_guards(name: str, window: Window, warmup: float) -> Dict[str, float]:
    """Validity guards; raises :class:`InvalidRun` when one is broken."""
    late_p99 = percentile(window.late, 99) * 1000.0
    if late_p99 > MAX_LATE_P99_MS:
        raise InvalidRun(f"generator ran late: p99 {late_p99:.1f} ms "
                         f"> {MAX_LATE_P99_MS} ms")
    lags = [sent - at for kind, at, sent, _d, _o, _k in window.records
            if kind == "tick" and at >= warmup]
    quarter = max(1, len(lags) // 4)
    head = statistics.fmean(lags[:quarter])
    tail = statistics.fmean(lags[-quarter:])
    if tail > head + SLOT_SECONDS / 2:
        raise InvalidRun(f"tick lag grew over the window: {head * 1000:.0f} "
                         f"ms -> {tail * 1000:.0f} ms behind schedule")
    measured = [a for k, a in window.active if k * SLOT_SECONDS >= warmup]
    if not measured:
        raise InvalidRun("no measured tick was answered")
    start, end = measured[0], measured[-1]
    if name == "steady-fleet" and abs(end - start) > MAX_FLEET_DRIFT * start:
        raise InvalidRun(f"fleet drifted over the window: {start} -> {end} "
                         "active jobs")
    return {"gen.late_p99_ms": late_p99,
            "fleet.active_p50": percentile(measured, 50)}


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------

async def _set_up(spec: Dict[str, Any], seed: int, journal_dir: Path,
                  history_slots: int, span_path: Optional[Path]
                  ) -> Tuple[Server, List[str], float]:
    """Journal (+history), server, preload: everything before the window."""
    started = now()
    known: List[str] = []
    if history_slots:
        known = build_history(journal_dir, seed, spec["capacity"],
                              history_slots)
    server = Server(journal_dir, spec["capacity"], span_path=span_path)
    try:
        await server.start()
        assert server.client is not None
        for body in preload_jobs(seed, spec["preload"], spec["capacity"]):
            await server.client.submit(body)
            known.append(body["job_id"])
    except BaseException:
        await server.stop(signal.SIGKILL)
        raise
    return server, known, now() - started


def obs_overhead(run: Callable[[], Any]) -> float:
    """CPU of ``run()`` with ``repro.obs`` enabled over its CPU with it off."""
    costs = []
    for enabled in (False, True):
        if enabled:
            obs.enable(trace=True, metrics=True, ledger=True)
        try:
            started = time.process_time()
            run()
            costs.append(time.process_time() - started)
        finally:
            obs.reset()
    return costs[1] / costs[0]


def _service_obs_overhead(spec: Dict[str, Any], seed: int) -> float:
    """The first seconds of the workload's write stream on an in-process
    engine (no WAL, no socket), with and without observability."""
    seconds = 4.0
    entries = build_schedule(
        seed=seed, seconds=seconds, capacity=spec["capacity"],
        submit_rate=spec["submit_rate"], cancel_rate=spec["cancel_rate"],
        read_rate=0.0, read_mix=READ_MIX)
    bodies = preload_jobs(seed, spec["preload"], spec["capacity"])

    def run() -> None:
        engine = ServiceEngine(service_config(spec["capacity"]))
        for body in bodies:
            engine.submit(body)
        apply_in_process(engine, entries, int(seconds / SLOT_SECONDS))
        engine.close()

    return obs_overhead(run)


async def run_service_workload(name: str, *, seed: int, seconds: float,
                               quick: bool = False, traced: bool = False
                               ) -> Dict[str, Any]:
    """One full run of a service workload.

    Returns the end-to-end ``metrics``, the ``diagnostics`` (per-layer
    metrics the driver can see from outside; with ``traced`` also the
    span-derived ones) and the ``problems`` the output checks found.
    """
    spec = SERVICE_WORKLOADS[name]
    history_slots = spec["history_slots"]
    if quick and history_slots:
        history_slots = QUICK_HISTORY_SLOTS
    lanes = max(1, (os.cpu_count() or 2) - 1)
    warmup = spec["warmup"]
    total = warmup + seconds
    root = make_tmp_root()
    window_spans = root / "window.jsonl" if traced else None
    recovery_spans = root / "recovery.jsonl" if traced else None
    server: Optional[Server] = None
    try:
        # Set-up is repeated so its median is steady; the last one is kept.
        setup_times: List[float] = []
        known: List[str] = []
        for rep in range(1 if quick else spec["setups"]):
            if server is not None:
                await server.stop(signal.SIGKILL)
            server, known, took = await _set_up(
                spec, seed, root / f"journal-{rep}", history_slots,
                window_spans)
            setup_times.append(took)
        assert server is not None and server.client is not None
        client = server.client

        floor = []
        for _ in range(50):
            started = now()
            await client.healthz()
            floor.append((now() - started) * 1000.0)

        entries = build_schedule(
            seed=seed, seconds=total, capacity=spec["capacity"],
            submit_rate=spec["submit_rate"], cancel_rate=spec["cancel_rate"],
            read_rate=spec["read_rate"], read_mix=READ_MIX, known_jobs=known)
        offered = offered_share(entries, total, spec["capacity"])
        if offered > MAX_OFFERED_SHARE:
            raise InvalidRun(f"schedule offers {offered:.2f} x capacity, "
                             f"more than {MAX_OFFERED_SHARE}")
        cpu_marks: List[float] = []
        window = Window(client, entries, int(round(total / SLOT_SECONDS)),
                        lanes, warmup,
                        lambda: cpu_marks.append(server.cpu_seconds()))
        await window.run()
        server_cpu = server.cpu_seconds() - cpu_marks[0]
        rss = server.peak_rss_mb()
        guards = check_guards(name, window, warmup)

        accepted = known + [key for kind, _a, _s, _d, outcome, key
                            in window.records
                            if kind == "submit" and outcome == "ok"]
        before = await client.request_json("GET", "/digest")
        journal_dir = server.journal_dir
        # A traced server writes its spans when SIGTERM makes it return;
        # the untraced run is the one that proves durability under SIGKILL.
        await server.stop(signal.SIGTERM if traced else signal.SIGKILL)

        server = Server(journal_dir, spec["capacity"],
                        span_path=recovery_spans)
        recovery_s = await server.start()
        assert server.client is not None
        after = await server.client.request_json("GET", "/digest")
        problems = [f"/digest {field} changed across recovery"
                    for field in ("slot", "decisions", "records")
                    if before[field] != after[field]]
        missing = 0
        for job_id in accepted:
            try:
                await server.client.job(job_id)
            except (ServiceRequestError, ServiceUnavailableError):
                missing += 1
        if missing:
            problems.append(f"{missing} accepted job(s) lost by recovery")
        anchor_bytes = (journal_dir / "anchor.json").stat().st_size
        # A short recovery is mostly process start-up, which is noisy:
        # kill and recover again and report the median.
        recoveries = [recovery_s]
        while (not traced and recovery_s < REPEAT_RECOVERY_BELOW
               and len(recoveries) < 5):
            await server.stop(signal.SIGKILL)
            server = Server(journal_dir, spec["capacity"])
            recoveries.append(await server.start())
        await server.stop(signal.SIGTERM)
        server = None
        spans: Dict[str, Any] = {}
        if traced:
            spans["window"], extra = tracing.load(str(window_spans))
            spans["recovery"], _ = tracing.load(str(recovery_spans))
    finally:
        if server is not None:
            await server.stop(signal.SIGKILL)
        shutil.rmtree(root, ignore_errors=True)

    measured = [r for r in window.records if r[1] >= warmup]
    attempted = len(measured)
    failed = sum(1 for r in measured if r[4] == "failed")
    if failed:
        problems.append(f"{failed} of {attempted} requests failed")
    reads = _latencies(window.records, ("job", "status"), warmup)
    submits = _latencies(window.records, ("submit",), warmup)
    ticks = _latencies(window.records, ("tick",), warmup)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "submit_p50_ms": percentile(submits, 50),
        "read_p50_ms": percentile(reads, 50),
        "tick_p50_ms": percentile(ticks, 50),
        "server_cpu_s": server_cpu,
        "server_rss_mb": rss,
        "recovery_s": statistics.median(recoveries),
    }
    diagnostics = {
        **guards,
        "http.submit_p95_ms": percentile(submits, 95),
        "http.submit_p99_ms": percentile(submits, 99),
        "http.read_p99_ms": percentile(reads, 99),
        "http.tick_p95_ms": percentile(ticks, 95),
        "http.tick_p99_ms": percentile(ticks, 99),
        "http.floor_ms_p50": percentile(floor, 50),
        "http.requests": float(attempted),
        "journal.anchor_bytes": float(anchor_bytes),
    }
    if traced:
        t0 = window.t0
        requests = [(kind, t0 + at, t0 + sent, t0 + done, key)
                    for kind, at, sent, done, outcome, key in window.records
                    if outcome != "failed"]
        table = SpanTable(spans["window"], since=t0 + warmup,
                          until=t0 + max(r[3] for r in window.records))
        diagnostics.update(per_layer(table, requests, t0 + warmup,
                                     SpanTable(spans["recovery"])))
        diagnostics["scheduler.fallbacks"] = float(
            extra["profile"].get("fallbacks", 0))
        diagnostics["trace.server_cpu_s"] = server_cpu
        diagnostics["obs.overhead_ratio"] = _service_obs_overhead(spec, seed)
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "metrics": metrics, "diagnostics": diagnostics,
        "attempted": attempted, "failed": failed,
        "conflicts": sum(1 for r in measured if r[4] == "conflict"),
        "samples": {"submit": len(submits), "read": len(reads),
                    "tick": len(ticks)},
        "offered_share": offered,
        "problems": problems, "spans": spans,
    }
