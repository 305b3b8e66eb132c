"""What each memo tier in front of WCDE buys a served tick.

Stage 1 of a plan (the robust demand eta of every job) can be answered
without a bisection by up to three tiers:

* **estimate reuse** — ``RushScheduler`` hands back a clean job's cached
  ``DemandEstimate`` object instead of re-running its DE unit;
* **identity presolve** — a planning session that kept, per job, the
  eta of the exact estimate object it saw last round (the tier the
  parent of the one-memo-tier change retired);
* **content cache** — ``RushPlanner``'s ``WcdeCache``, keyed by the PMF's
  content, ``theta`` and ``delta``.

This replays the ledger's write schedules (``steady-fleet``,
``api-mixed``, and ``long-uptime``'s 600-slot history followed by its
window) straight into an in-process ``ServiceEngine`` — no socket, no
WAL — one tick per slot, under three configurations:

* ``shipped`` — the tree as it is;
* ``no-identity`` — the identity tier bypassed: a session's ``plan``
  forwards to its planner (on a tree without that tier this equals
  ``shipped``);
* ``no-tiers`` — ``RushScheduler(incremental=False)``: the estimate tier
  and, where it exists, the identity tier are off.  The content cache
  is on in every configuration.

Per run it records, over the window's slots only: the median tick in
ms, estimation and stage-1 (``PlanStats.wcde_seconds``) ms per plan, the
content cache's hits and misses, presolved jobs, and the decisions
digest after the last tick.  Configurations alternate run by run
(round ``k`` starts at configuration ``k``), so host drift lands on
every side alike.

Run from the repository root with the tree under test on the path::

    PYTHONPATH=src python benchmarks/memo_tiers.py --label HEAD

``--src`` points at another checkout's ``src`` instead; ``--label``
names the tree in the output, and the run replaces that label's entry
in ``BENCH_memo.json`` (other labels are kept).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from contextlib import ExitStack
from pathlib import Path
from typing import Any, Callable, Dict, List
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"

WORKLOADS = ("steady-fleet", "api-mixed", "long-uptime")
CONFIGS = ("shipped", "no-identity", "no-tiers")
SEEDS = (3, 5)
SLOTS = 100
RUNS = 4


def _patches(config: str) -> List[Any]:
    """The ``mock`` patches that select one configuration."""
    import repro.core.planner as planner_mod
    from repro.schedulers.rush import RushScheduler

    if config == "shipped":
        return []
    if config == "no-identity":
        session = getattr(planner_mod, "IncrementalPlanner", None)
        if session is None:
            return []

        def forward(self: Any, jobs: Any, horizon: Any = None) -> Any:
            return self.planner.plan(jobs, horizon)

        return [mock.patch.object(session, "plan", forward)]
    if config == "no-tiers":
        init = RushScheduler.__init__

        def uncached(self: Any, **kwargs: Any) -> None:
            init(self, **{**kwargs, "incremental": False})

        return [mock.patch.object(RushScheduler, "__init__", uncached)]
    raise ValueError(f"unknown configuration {config!r}")


def _run(workload: str, seed: int, config: str) -> Dict[str, Any]:
    """One workload x seed under one configuration, in process."""
    from driver import (READ_MIX, SERVICE_WORKLOADS, _API_RATES,
                        apply_in_process, service_config)
    from schedule import SLOT_SECONDS, build_schedule, preload_jobs

    from repro.core.planner import RushPlanner
    from repro.estimation.base import DistributionEstimator
    from repro.service.engine import ServiceEngine

    spec = SERVICE_WORKLOADS[workload]
    capacity = spec["capacity"]
    acc: Dict[str, float] = {}

    def reset() -> None:
        acc.update(plans=0, estimate_s=0.0, wcde_s=0.0, hits=0, misses=0,
                   presolved=0)

    solve = RushPlanner.plan
    estimate = DistributionEstimator.estimate

    def plan(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = solve(self, *args, **kwargs)
        stats = result.stats
        acc["plans"] += 1
        acc["wcde_s"] += stats.wcde_seconds
        acc["hits"] += stats.wcde_cache_hits
        acc["misses"] += stats.wcde_cache_misses
        acc["presolved"] += stats.wcde_presolved
        return result

    def timed_estimate(self: Any, *args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return estimate(self, *args, **kwargs)
        finally:
            acc["estimate_s"] += time.perf_counter() - started

    ticks: List[float] = []
    reset()
    with ExitStack() as stack:
        for patch in _patches(config):
            stack.enter_context(patch)
        stack.enter_context(mock.patch.object(RushPlanner, "plan", plan))
        stack.enter_context(mock.patch.object(
            DistributionEstimator, "estimate", timed_estimate))
        engine = ServiceEngine(service_config(capacity))
        known: List[str] = []
        for body in preload_jobs(seed, spec["preload"], capacity):
            known.append(engine.submit(body)["job_id"])
        if spec["history_slots"]:
            # ``driver.build_history``'s stream, minus the journal.
            history = build_schedule(
                seed=seed + 7919,
                seconds=spec["history_slots"] * SLOT_SECONDS,
                capacity=capacity, read_rate=0.0, read_mix=READ_MIX,
                prefix="h", **_API_RATES)
            known += apply_in_process(engine, history, spec["history_slots"])
        entries = build_schedule(
            seed=seed, seconds=SLOTS * SLOT_SECONDS, capacity=capacity,
            submit_rate=spec["submit_rate"], cancel_rate=spec["cancel_rate"],
            read_rate=0.0, read_mix=READ_MIX, known_jobs=known)
        tick = engine.tick

        def timed_tick(*args: Any, **kwargs: Any) -> Any:
            started = time.perf_counter()
            try:
                return tick(*args, **kwargs)
            finally:
                ticks.append(time.perf_counter() - started)

        engine.tick = timed_tick  # type: ignore[method-assign]
        reset()
        apply_in_process(engine, entries, SLOTS)
        digest = engine.decisions_digest()
        engine.close()
    plans = max(acc["plans"], 1)
    return {
        "tick_p50_ms": statistics.median(ticks) * 1e3,
        "plans": int(acc["plans"]),
        "estimation_ms_per_plan": acc["estimate_s"] * 1e3 / plans,
        "wcde_ms_per_plan": acc["wcde_s"] * 1e3 / plans,
        "cache_hits": int(acc["hits"]),
        "cache_misses": int(acc["misses"]),
        "presolved": int(acc["presolved"]),
        "decisions_digest": digest,
    }


def _summary(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Medians of the timings; the counts and digest must repeat exactly."""
    exact = ("plans", "cache_hits", "cache_misses", "presolved",
             "decisions_digest")
    for key in exact:
        values = {run[key] for run in runs}
        if len(values) != 1:
            raise AssertionError(f"{key} differs between runs: {values}")
    out: Dict[str, Any] = {key: runs[0][key] for key in exact}
    for key in ("tick_p50_ms", "estimation_ms_per_plan", "wcde_ms_per_plan"):
        out[key] = statistics.median(run[key] for run in runs)
        out[key + "_runs"] = [round(run[key], 3) for run in runs]
    return out


def measure(configs: List[str], workloads: List[str], seeds: List[int],
            runs: int, log: Callable[[str], None] = print
            ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{config: {"workload seed N": summary}}``, configurations
    alternating run by run."""
    raw: Dict[str, Dict[str, List[Dict[str, Any]]]] = {
        config: {} for config in configs}
    for workload in workloads:
        for seed in seeds:
            cell = f"{workload} seed {seed}"
            for k in range(runs):
                order = configs[k % len(configs):] + configs[:k % len(configs)]
                for config in order:
                    run = _run(workload, seed, config)
                    raw[config].setdefault(cell, []).append(run)
                    log(f"{cell} run {k} {config}: "
                        f"tick p50 {run['tick_p50_ms']:.2f} ms, "
                        f"{run['cache_hits']} hit(s) / "
                        f"{run['cache_misses']} miss(es), "
                        f"{run['presolved']} presolved")
    return {config: {cell: _summary(cell_runs)
                     for cell, cell_runs in cells.items()}
            for config, cells in raw.items()}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", help="the src directory of the tree to "
                        "measure (default: whatever PYTHONPATH imports)")
    parser.add_argument("--label", required=True,
                        help="name of the measured tree in the output")
    parser.add_argument("--configs", nargs="+", default=list(CONFIGS),
                        choices=CONFIGS)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(SEEDS))
    parser.add_argument("--runs", type=int, default=RUNS)
    parser.add_argument("--out", default=str(ROOT / "BENCH_memo.json"))
    args = parser.parse_args(argv)
    if args.src:
        sys.path.insert(0, str(Path(args.src).resolve()))
    sys.path.insert(0, str(LEDGER))

    results = measure(args.configs, args.workloads, args.seeds, args.runs)
    out = Path(args.out)
    payload = (json.loads(out.read_text(encoding="utf-8"))
               if out.exists() else {})
    payload.update({
        "benchmark": "memo_tiers",
        "harness": "benchmarks/memo_tiers.py",
        "slots": SLOTS,
        "configurations": {
            "shipped": "the tree as it is",
            "no-identity": "identity presolve bypassed (equals shipped on "
                           "a tree without it)",
            "no-tiers": "RushScheduler(incremental=False): estimate reuse "
                        "and identity presolve off; content cache on"},
    })
    payload.setdefault("trees", {})[args.label] = {
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "runs_per_config": args.runs,
        "results": results,
    }
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
