"""The service smoke battery: HTTP path ≡ simulator path, end to end.

Boots the daemon in manual-clock mode, replays a scenario workload
through the HTTP API (submit each job, tick the clock to completion,
scrape ``/metrics`` and ``/digest``), runs the *same* workload through
the plain batch simulator, and diffs the canonical outcome digests.
They must be byte-identical: the daemon is the same deterministic core
behind a socket, and this is the check CI's ``service-smoke`` job runs
on every push (``rush serve --smoke``).

The equivalence leans on three invariants pinned elsewhere:

* submissions delivered through :class:`~repro.core.clock.SubmitEvent`
  before the first tick land in the same arrival-sorted admission order
  as upfront ``sim.submit`` calls (``tests/test_clock.py``);
* a journal replay re-derives the identical decision stream
  (``tests/test_service.py``);
* the trace-record payload round-trips specs exactly
  (``tests/test_trace_roundtrip.py``).
"""

from __future__ import annotations

import asyncio
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import obs
from repro.cluster.simulator import run_simulation
from repro.errors import ServiceError
from repro.schedulers.rush import RushScheduler
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.engine import ServiceConfig, ServiceEngine
from repro.service.protocol import records_digest, submit_payload_from_spec
from repro.workload.scenarios import build_scenario_workload, scenario_by_name

__all__ = ["run_service_smoke", "run_crash_smoke", "SMOKE_SCENARIO"]

SMOKE_SCENARIO = "hpc-replay"

#: Metric families the scrape must expose once the daemon has run jobs.
_EXPECTED_METRICS = (
    "rush_service_jobs_submitted_total",
    "rush_sim_tasks_completed_total",
)


def _scheduler_options(theta: float, delta: float) -> Dict[str, Any]:
    return {"theta": theta, "delta": delta}


async def _drive_service(engine: ServiceEngine, specs, *,
                         max_slots: int) -> Dict[str, Any]:
    daemon = ServiceDaemon(engine)
    await daemon.start()
    try:
        async with ServiceClient("127.0.0.1", daemon.port) as client:
            health = await client.healthz()
            if not health.get("ok"):
                raise ServiceError(
                    f"daemon failed its health check: {health}")
            for spec in specs:
                await client.submit(submit_payload_from_spec(spec))
            ticks = 0
            digest = await client.request_json("GET", "/digest")
            while not digest["idle"] and ticks < max_slots:
                # Batch ticks to keep the HTTP round-trips off the
                # critical path; correctness is per-slot regardless of
                # batch size.
                await client.tick(50)
                ticks += 50
                digest = await client.request_json("GET", "/digest")
            metrics_text = await client.metrics_text()
            status = await client.status()
            return {"digest": digest, "metrics_text": metrics_text,
                    "status": status}
    finally:
        await daemon.stop()


def run_service_smoke(scenario_name: str = SMOKE_SCENARIO, *,
                      seed: int = 0, fast: bool = True,
                      max_slots: Optional[int] = None) -> Dict[str, Any]:
    """Run the battery; returns a report with ``"match": True`` on success.

    Raises :class:`~repro.errors.ServiceError` when the HTTP-path digest
    diverges from the simulator path or the metrics scrape is missing an
    expected family — CI treats any raise as a failed gate.
    """
    scenario = scenario_by_name(scenario_name)
    specs = build_scenario_workload(scenario, seed=seed, fast=fast)
    capacity = scenario.capacity(fast)
    limit = max_slots if max_slots is not None else scenario.max_slots
    options = _scheduler_options(scenario.theta, scenario.delta)

    # Simulator path first, with observability off so the service path's
    # scrape below starts from a clean registry.
    obs.reset()
    sim_result = run_simulation(
        specs, capacity, RushScheduler(**options), max_slots=limit,
        seed=seed, raise_on_timeout=True)
    sim_digest = records_digest(sim_result.records)

    obs.enable(trace=False, metrics=True, ledger=False)
    try:
        engine = ServiceEngine(ServiceConfig(
            capacity=capacity, policy="rush", seed=seed,
            scheduler_options=options))
        service = asyncio.run(
            _drive_service(engine, specs, max_slots=limit))
    finally:
        obs.reset()

    service_digest = service["digest"]["records"]
    report: Dict[str, Any] = {
        "scenario": scenario.name,
        "fast": fast,
        "seed": seed,
        "jobs": len(specs),
        "capacity": capacity,
        "slots": service["digest"]["slot"],
        "simulator_digest": sim_digest,
        "service_digest": service_digest,
        "match": service_digest == sim_digest,
        "decisions_digest": service["digest"]["decisions"],
        "metrics_bytes": len(service["metrics_text"]),
    }
    if not report["match"]:
        raise ServiceError(
            "service smoke failed: HTTP-path records digest "
            f"{service_digest[:12]}… != simulator-path {sim_digest[:12]}… "
            f"on scenario {scenario.name!r} (seed {seed})")
    missing = [name for name in _EXPECTED_METRICS
               if name not in service["metrics_text"]]
    if missing:
        raise ServiceError(
            f"/metrics scrape is missing familie(s): {', '.join(missing)}")
    return report


# ---------------------------------------------------------------------------
# Crash smoke: kill -9 a journaled daemon, restart, diff the digests.
# ---------------------------------------------------------------------------

_BANNER_RE = re.compile(r"http://[^\s:]+:(\d+)")
_CRASH_CAPACITY = 4


def _spawn_server(journal_dir: str) -> "subprocess.Popen[str]":
    """Boot a real ``rush serve --journal-dir`` subprocess (manual clock)."""
    src_root = Path(__file__).resolve().parent.parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--manual",
         "--port", "0", "--capacity", str(_CRASH_CAPACITY),
         "--policy", "fifo", "--journal-dir", journal_dir],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)


def _wait_for_banner(proc: "subprocess.Popen[str]") -> int:
    """Read the startup banner; returns the bound port."""
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = _BANNER_RE.search(line or "")
    if not match:
        proc.kill()
        rest = proc.stdout.read()
        raise ServiceError(
            f"journaled daemon failed to boot: {(line + rest).strip()!r}")
    return int(match.group(1))


def _crash_payload(index: int) -> Dict[str, Any]:
    return {"task_durations": [1 + index % 3, 2], "budget": 50.0}


def _crash_key(seed: int, index: int) -> str:
    return f"ck-{seed}-{index}"


async def _crash_phase_submit(port: int, jobs: int,
                              seed: int) -> List[str]:
    """Submit keyed jobs against the doomed first daemon, ticking along."""
    job_ids: List[str] = []
    async with ServiceClient("127.0.0.1", port, retries=2,
                             seed=seed) as client:
        for index in range(jobs):
            status = await client.submit(
                _crash_payload(index), idempotency_key=_crash_key(seed, index))
            job_ids.append(str(status["job_id"]))
            await client.tick(1)
    return job_ids


async def _crash_phase_verify(port: int, seed: int, expected: List[str], *,
                              max_ticks: int = 500
                              ) -> Tuple[int, Dict[str, Any]]:
    """Against the restarted daemon: nothing lost, retries dedup, drain."""
    async with ServiceClient("127.0.0.1", port, retries=2,
                             seed=seed) as client:
        listed = {str(job["job_id"]) for job in await client.jobs()}
        missing = [job_id for job_id in expected if job_id not in listed]
        if missing:
            raise ServiceError(
                f"crash recovery lost job(s): {', '.join(missing)}")
        deduped = 0
        for index, job_id in enumerate(expected):
            status = await client.submit(
                _crash_payload(index),
                idempotency_key=_crash_key(seed, index))
            if not status.get("deduplicated") or status["job_id"] != job_id:
                raise ServiceError(
                    f"idempotent resubmit of {job_id} was not deduplicated: "
                    f"{status}")
            deduped += 1
        after = await client.jobs()
        if len(after) != len(expected):
            raise ServiceError(
                f"resubmits changed the job count ({len(expected)} -> "
                f"{len(after)}): a duplicate admission slipped through")
        digest = await client.request_json("GET", "/digest")
        ticks = 0
        while not digest["idle"] and ticks < max_ticks:
            await client.tick(10)
            ticks += 10
            digest = await client.request_json("GET", "/digest")
        if not digest["idle"]:
            raise ServiceError(
                f"recovered daemon did not drain within {max_ticks} slots")
        return deduped, digest


def run_crash_smoke(journal_dir: Optional[str] = None, *, jobs: int = 6,
                    seed: int = 0) -> Dict[str, Any]:
    """The CI crash lane: journaled daemon, ``kill -9``, restart, diff.

    Boots ``rush serve --journal-dir`` as a real subprocess, submits
    ``jobs`` keyed jobs, SIGKILLs it mid-workload, restarts it on the
    same directory, and asserts: no job lost, keyed resubmits dedup
    (never a duplicate admission), the daemon drains to idle, SIGTERM
    exits 0 after a graceful flush, and an in-process recovery of the
    journal re-derives the exact served decision digest.  Any violation
    raises :class:`~repro.errors.ServiceError` (CI fails the lane and
    uploads the journal directory as an artifact).
    """
    from repro.service.journal import open_journal

    owned = journal_dir is None
    directory = journal_dir or tempfile.mkdtemp(prefix="rush-crash-smoke-")
    os.makedirs(directory, exist_ok=True)

    proc = _spawn_server(directory)
    try:
        port = _wait_for_banner(proc)
        job_ids = asyncio.run(_crash_phase_submit(port, jobs, seed))
    finally:
        proc.kill()  # SIGKILL: no drain, no flush, no goodbye
        proc.wait(timeout=30)

    proc = _spawn_server(directory)
    try:
        port = _wait_for_banner(proc)
        deduped, digest = asyncio.run(
            _crash_phase_verify(port, seed, job_ids))
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=30)
    except BaseException:
        proc.kill()
        proc.wait(timeout=30)
        raise
    if proc.returncode != 0:
        raise ServiceError(
            f"graceful shutdown exited {proc.returncode}: {out.strip()!r}")

    engine, _writer = open_journal(directory)
    try:
        recovered_digest = engine.decisions_digest()
        recovered_jobs = len(engine.list_jobs())
    finally:
        engine.close()
    if recovered_digest != digest["decisions"]:
        raise ServiceError(
            "crash smoke failed: journal recovery digest "
            f"{recovered_digest[:12]}… != served "
            f"{str(digest['decisions'])[:12]}…")

    report = {
        "jobs": jobs,
        "job_ids": job_ids,
        "deduplicated": deduped,
        "recovered_jobs": recovered_jobs,
        "graceful_exit": 0,
        "decisions_digest": digest["decisions"],
        "match": True,
    }
    if owned:
        shutil.rmtree(directory, ignore_errors=True)
    else:
        report["journal_dir"] = directory
    return report
