"""What peeling runs of tied onion layers in one step buys a served tick.

Replays a ledger workload's write schedule (``steady-fleet`` by default;
``long-uptime`` starts from its 600-slot history) straight into an
in-process ``ServiceEngine`` — no socket, no WAL — one tick per slot,
once per checkout and pair, alternating which checkout goes first.
Every run is a fresh subprocess that imports its checkout's ``src``;
the write schedule comes from this tree's ``benchmarks/ledger``, read
only.  Per run, over the window's ticks:

* ``tick_p50_ms`` — the median ``ServiceEngine.tick``, wall clock;
* ``tick_cpu_p50_ms`` / ``tick_cpu_mean_ms`` — the median and mean of
  the same ticks in thread CPU time (``time.thread_time``), which a
  host that drifts in speed within a session blurs less than wall time;
* ``wcde`` / ``onion`` / ``mapping`` ms per plan — ``PlanStats``' stage
  seconds;
* peels, passes evaluated and probes certified per plan — they must
  repeat exactly across runs and checkouts;
* ledger inserts per plan — ``_PeeledLedger.commit`` calls: one per
  layer that bisects, one per run of tied layers;
* the decisions digest after the last tick — equal across checkouts.

Run from the repository root::

    python benchmarks/tied_runs.py --tree parent=../parent --tree change=.

The first ``--tree`` is the baseline the others' wins are counted
against.  The result is one JSON object on stdout (or in ``--out``);
``BENCH_onion.json`` keeps it under ``tied_runs.in_process``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"

SLOTS = 100
TIMINGS = ("tick_p50_ms", "tick_cpu_p50_ms", "tick_cpu_mean_ms",
           "wcde_ms_per_plan", "onion_ms_per_plan", "mapping_ms_per_plan")
COUNTS = ("plans", "peels_per_plan", "passes_per_plan",
          "certified_per_plan", "ledger_inserts_per_plan",
          "decisions_digest")


def probe(checkout: str, workload: str, seed: int, slots: int
          ) -> Dict[str, Any]:
    """One run of one checkout, in this process."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    sys.path.insert(0, str(LEDGER))
    from driver import (READ_MIX, SERVICE_WORKLOADS, _API_RATES,
                        apply_in_process, service_config)
    from schedule import SLOT_SECONDS, build_schedule, preload_jobs

    from repro.core import onion
    from repro.core.planner import RushPlanner
    from repro.service.engine import ServiceEngine

    spec = SERVICE_WORKLOADS[workload]
    capacity = spec["capacity"]
    acc: Dict[str, float] = {}

    def reset() -> None:
        acc.update(plans=0, wcde=0.0, onion=0.0, mapping=0.0, peels=0,
                   passes=0, certified=0, inserts=0)

    solve, commit = RushPlanner.plan, onion._PeeledLedger.commit

    def plan(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = solve(self, *args, **kwargs)
        stats = result.stats
        acc["plans"] += 1
        acc["wcde"] += stats.wcde_seconds
        acc["onion"] += stats.onion_seconds
        acc["mapping"] += stats.mapping_seconds
        acc["peels"] += stats.peels
        acc["passes"] += stats.feasibility_checks
        acc["certified"] += stats.certified_probes
        return result

    def counting(self: Any, *args: Any) -> None:
        acc["inserts"] += 1
        commit(self, *args)

    ticks: List[float] = []
    cpu: List[float] = []
    reset()
    with mock.patch.object(RushPlanner, "plan", plan), \
            mock.patch.object(onion._PeeledLedger, "commit", counting):
        engine = ServiceEngine(service_config(capacity))
        known = [engine.submit(body)["job_id"]
                 for body in preload_jobs(seed, spec["preload"], capacity)]
        if spec["history_slots"]:
            # ``driver.build_history``'s stream, minus the journal.
            history = build_schedule(
                seed=seed + 7919,
                seconds=spec["history_slots"] * SLOT_SECONDS,
                capacity=capacity, read_rate=0.0, read_mix=READ_MIX,
                prefix="h", **_API_RATES)
            known += apply_in_process(engine, history, spec["history_slots"])
        entries = build_schedule(
            seed=seed, seconds=slots * SLOT_SECONDS, capacity=capacity,
            submit_rate=spec["submit_rate"], cancel_rate=spec["cancel_rate"],
            read_rate=0.0, read_mix=READ_MIX, known_jobs=known)
        tick = engine.tick

        def timed_tick(*args: Any, **kwargs: Any) -> Any:
            started, cpu_started = time.perf_counter(), time.thread_time()
            try:
                return tick(*args, **kwargs)
            finally:
                ticks.append(time.perf_counter() - started)
                cpu.append(time.thread_time() - cpu_started)

        engine.tick = timed_tick  # type: ignore[method-assign]
        reset()
        apply_in_process(engine, entries, slots)
        digest = engine.decisions_digest()
        engine.close()
    plans = max(acc["plans"], 1)
    return {
        "tick_p50_ms": round(statistics.median(ticks) * 1e3, 3),
        "tick_cpu_p50_ms": round(statistics.median(cpu) * 1e3, 3),
        "tick_cpu_mean_ms": round(statistics.fmean(cpu) * 1e3, 3),
        "wcde_ms_per_plan": round(acc["wcde"] * 1e3 / plans, 3),
        "onion_ms_per_plan": round(acc["onion"] * 1e3 / plans, 3),
        "mapping_ms_per_plan": round(acc["mapping"] * 1e3 / plans, 3),
        "plans": int(acc["plans"]),
        "peels_per_plan": round(acc["peels"] / plans, 2),
        "passes_per_plan": round(acc["passes"] / plans, 2),
        "certified_per_plan": round(acc["certified"] / plans, 2),
        "ledger_inserts_per_plan": round(acc["inserts"] / plans, 2),
        "decisions_digest": digest,
    }


def _spawn(checkout: str, workload: str, seed: int, slots: int
           ) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, __file__, "--probe", checkout, workload, str(seed),
         str(slots)], check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def measure(trees: Dict[str, str], workload: str, seed: int, slots: int,
            pairs: int) -> Dict[str, Any]:
    """Alternating runs of every tree; medians, every run, and the wins of
    each tree's tick against the first tree's, pair by pair."""
    labels = list(trees)
    runs: Dict[str, List[Dict[str, Any]]] = {label: [] for label in labels}
    for k in range(pairs):
        for label in labels[k % len(labels):] + labels[:k % len(labels)]:
            run = _spawn(trees[label], workload, seed, slots)
            runs[label].append(run)
            print(f"{workload} seed {seed} pair {k} {label}: tick p50 "
                  f"{run['tick_p50_ms']:.2f} ms, mean tick CPU "
                  f"{run['tick_cpu_mean_ms']:.2f} ms, onion "
                  f"{run['onion_ms_per_plan']:.2f} ms/plan", file=sys.stderr)
    cell: Dict[str, Any] = {"workload": workload, "seed": seed,
                            "slots": slots, "pairs": pairs}
    for label in labels:
        side = cell[label] = {}
        for key in COUNTS:
            values = {run[key] for run in runs[label]}
            if len(values) != 1:
                raise AssertionError(f"{label}: {key} varies: {values}")
            side[key] = values.pop()
        for key in TIMINGS:
            side[key] = statistics.median(run[key] for run in runs[label])
            side[key + "_runs"] = [run[key] for run in runs[label]]
    base = labels[0]
    cell["digests_equal"] = len({cell[label]["decisions_digest"]
                                 for label in labels}) == 1
    for label in labels[1:]:
        for key, wins in (("tick_p50_ms", "tick_wins"),
                          ("tick_cpu_mean_ms", "tick_cpu_wins")):
            cell[label][wins] = sum(
                mine[key] < theirs[key]
                for mine, theirs in zip(runs[label], runs[base]))
    return cell


def main(argv: List[str]) -> int:
    if argv[:1] == ["--probe"]:
        checkout, workload, seed, slots = argv[1:5]
        print(json.dumps(probe(checkout, workload, int(seed), int(slots))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        metavar="LABEL=CHECKOUT",
                        help="a checkout to measure (the first is the "
                        "baseline)")
    parser.add_argument("--workloads", nargs="+", default=["steady-fleet"])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--slots", type=int, default=SLOTS)
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--out", help="write the JSON here, not stdout")
    args = parser.parse_args(argv)
    trees = dict(tree.split("=", 1) for tree in args.tree)
    rows = [measure(trees, workload, args.seed, args.slots, args.pairs)
            for workload in args.workloads]
    text = json.dumps({
        "harness": "benchmarks/tied_runs.py",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "trees": list(trees),
        "rows": rows,
    }, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
