"""Seeded open-loop schedules for the ledger's service workloads.

Everything the server will be asked is decided here, up front, from
``--seed``: a schedule is a plain list of ``{"at", "kind", ...}`` entries
(``at`` = seconds after the window opens) that the driver replays
against the clock.  The server never sees the seed, only the requests.

Job shapes come from JSON profiles under ``profiles/`` (one distribution
per parameter, stratified-sampled with a seeded ``numpy`` ``Generator``); arrival
times come from the bursty two-state process that already lives in
:mod:`repro.workload.generator`, rescaled so every seed offers exactly
``rate x seconds`` requests — burst structure varies with the seed, the
offered load does not.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import NormalDist
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.templates import PUMA_TEMPLATES

PROFILE_DIR = Path(__file__).resolve().parent / "profiles"

#: Slots per second of the pacer (a 0.2 s slot, as RealTimeClock would run).
SLOT_SECONDS = 0.2

#: A read or cancel only targets jobs whose submit was due at least this
#: long before it, so with several request lanes the submit has landed.
TARGET_LAG_SECONDS = 0.4

#: Cancels pick among jobs submitted in this trailing span: recent
#: enough that most are still running, so a cancel does real work.
CANCEL_RECENT_SECONDS = 2.0


def load_profile(name: str) -> Dict[str, Any]:
    with open(PROFILE_DIR / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _draw(rng: np.random.Generator, dist: Dict[str, Any], size: int) -> np.ndarray:
    """``size`` stratified draws from one profile distribution entry.

    One draw per equal-probability stratum, shuffled: every seed sees
    the same marginal distribution (so the offered work barely moves
    from seed to seed) while which job gets which value is random.
    """
    strata = rng.permutation((np.arange(size) + rng.random(size)) / size)
    kind, params = dist["type"], dist["params"]
    if kind == "integers":
        values = params[0] + np.floor(strata * (params[1] - params[0] + 1))
    elif kind == "uniform":
        values = params[0] + strata * (params[1] - params[0])
    elif kind == "lognormal":
        normal = NormalDist()
        values = np.exp(params[0] + params[1]
                        * np.array([normal.inv_cdf(u) for u in strata]))
    else:
        raise ValueError(f"unsupported profile distribution {kind!r}")
    if "min" in dist or "max" in dist:
        values = np.clip(values, dist.get("min"), dist.get("max"))
    return values


def _lpt_makespan(durations: Sequence[int], capacity: int) -> int:
    """The paper's whole-cluster benchmark runtime of one job."""
    return PUMA_TEMPLATES[0].benchmark_runtime(list(durations), capacity)


def sample_jobs(profile: Dict[str, Any], count: int, capacity: int,
                rng: np.random.Generator, prefix: str) -> List[Dict[str, Any]]:
    """``count`` submit bodies drawn from ``profile`` (ids ``prefix-NNNNN``)."""
    if count == 0:
        return []
    params = profile["parameters"]
    mix = profile["sensitivity_mix"]
    # The class split is exact (the profile's mix), its order random.
    classes = rng.permutation(np.repeat(
        list(mix), np.diff(np.round(np.cumsum([0.0] + list(mix.values()))
                                    * count).astype(int))))
    task_counts = _draw(rng, params["task_count"], count).astype(int)
    typical = _draw(rng, params["task_duration"], count)
    ratios = _draw(rng, params["budget_ratio"], count)
    priorities = _draw(rng, params["priority"], count).astype(int)
    jitter = profile["task_jitter_sigma"]
    limits = params["task_duration"]
    # The DE prior a client would plausibly know: the profile's typical
    # task runtime, not this job's own ground truth.
    mu, sigma = params["task_duration"]["params"]
    prior = float(np.exp(mu + 0.5 * sigma * sigma))
    jobs = []
    for k in range(count):
        # Tasks of one job scatter around the job's own typical runtime.
        raw = typical[k] * rng.lognormal(0.0, jitter, size=int(task_counts[k]))
        durations = [max(1, int(round(d))) for d in
                     np.clip(raw, limits.get("min"), limits.get("max"))]
        benchmark = _lpt_makespan(durations, capacity)
        budget = float(ratios[k]) * benchmark
        sensitivity = str(classes[k])
        priority = int(priorities[k])
        if sensitivity == "insensitive":
            utility = {"class": "constant", "priority": priority}
        else:
            utility = {"class": "sigmoid", "budget": budget,
                       "priority": priority,
                       "beta": profile["beta"][sensitivity]}
        jobs.append({
            "job_id": f"{prefix}-{k:05d}",
            "task_durations": durations,
            "utility": utility,
            "priority": priority,
            "budget": budget,
            "benchmark_runtime": float(benchmark),
            "sensitivity": sensitivity,
            "template": profile["name"],
            "prior_runtime": prior,
        })
    return jobs


def bursty_times(rate: float, seconds: float, seed: int) -> List[float]:
    """``round(rate * seconds)`` arrival offsets in ``[0, seconds)``.

    Drawn from the generator's bursty (two-state modulated Poisson)
    process at millisecond resolution, then stretched so the last
    arrival lands just inside the window.
    """
    count = int(round(rate * seconds))
    if count <= 0:
        return []
    config = WorkloadConfig(
        n_jobs=count, capacity=1, mean_interarrival=1000.0 / rate,
        arrival_process="bursty", size_gb_range=(0.01, 0.01))
    arrivals = [spec.arrival for spec in
                WorkloadGenerator(config, seed=seed).generate()]
    span = max(arrivals[-1], 1)
    scale = seconds * (count - 0.5) / count / span
    return [a * scale for a in arrivals]


def build_schedule(*, seed: int, seconds: float, capacity: int,
                   submit_rate: float, cancel_rate: float, read_rate: float,
                   read_mix: Sequence[Tuple[str, float]],
                   prefix: str = "w",
                   known_jobs: Sequence[str] = ()) -> List[Dict[str, Any]]:
    """The request schedule of one window, sorted by due time.

    ``known_jobs`` are ids already on the server when the window opens
    (preloaded or historical); reads may target them from time zero.
    """
    rng = np.random.default_rng([seed, 1])
    submit_at = bursty_times(submit_rate, seconds, seed * 3 + 1)
    bodies = sample_jobs(load_profile("interactive"), len(submit_at),
                         capacity, rng, prefix)
    entries: List[Dict[str, Any]] = [
        {"at": at, "kind": "submit", "job_id": body["job_id"], "payload": body}
        for at, body in zip(submit_at, bodies)]

    ids = [body["job_id"] for body in bodies]
    cancelled: set = set()
    for at in bursty_times(cancel_rate, seconds, seed * 3 + 2):
        lo = np.searchsorted(submit_at, at - CANCEL_RECENT_SECONDS)
        hi = np.searchsorted(submit_at, at - TARGET_LAG_SECONDS)
        pool = [k for k in range(lo, hi) if k not in cancelled]
        if not pool:
            continue
        target = pool[int(rng.integers(len(pool)))]
        cancelled.add(target)
        entries.append({"at": at, "kind": "cancel", "job_id": ids[target]})

    kinds = [k for k, _ in read_mix]
    weights = np.array([w for _, w in read_mix], dtype=float)
    for at in bursty_times(read_rate, seconds, seed * 3 + 3):
        kind = kinds[int(rng.choice(len(kinds), p=weights / weights.sum()))]
        entry: Dict[str, Any] = {"at": at, "kind": kind}
        if kind == "job":
            hi = int(np.searchsorted(submit_at, at - TARGET_LAG_SECONDS))
            pool_size = len(known_jobs) + hi
            if pool_size == 0:
                entry["kind"] = "status"
            else:
                pick = int(rng.integers(pool_size))
                entry["job_id"] = (known_jobs[pick] if pick < len(known_jobs)
                                   else ids[pick - len(known_jobs)])
        entries.append(entry)
    entries.sort(key=lambda e: e["at"])
    return entries


def by_slot(entries: Sequence[Dict[str, Any]], slots: int
            ) -> List[List[Dict[str, Any]]]:
    """Bucket a schedule by the slot each entry falls due in."""
    buckets: List[List[Dict[str, Any]]] = [[] for _ in range(slots)]
    for entry in entries:
        buckets[min(int(entry["at"] / SLOT_SECONDS), slots - 1)].append(entry)
    return buckets


def offered_share(entries: Sequence[Dict[str, Any]], seconds: float,
                  capacity: int) -> float:
    """Submitted container-work per slot as a share of capacity."""
    work = sum(sum(e["payload"]["task_durations"]) for e in entries
               if e["kind"] == "submit")
    return work / (seconds / SLOT_SECONDS) / capacity


def preload_jobs(seed: int, count: int, capacity: int,
                 prefix: str = "b") -> List[Dict[str, Any]]:
    """The long ``batch``-profile jobs steady-fleet starts with."""
    rng = np.random.default_rng([seed, 2])
    return sample_jobs(load_profile("batch"), count, capacity, rng, prefix)
