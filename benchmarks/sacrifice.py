"""Who ends at the utility floor: the onion's sacrifice rule, per checkout.

When a solve's first layer bottoms out at the utility floor, the
sacrifice rule decides which jobs stay there.  This script measures
that choice on every checkout given, with no other difference between
the runs:

* **fleets** — one cold plan of ``bench_planner_incremental._make_jobs``
  fleets through ``RushPlanner(48, theta 0.9, delta 0.7, tolerance
  0.05)``, read from the plan's predicted utilities;
* **library** — the fault-free RUSH run of ``mixed-tenancy``,
  ``web-bursty`` and ``hpc-replay`` (fast variants) at seeds 0-7, read
  from the achieved utilities of the held-out jobs.

Per case and checkout it records the zero count at ``floor +
tolerance`` (utility <= 0.05) and at 1e-9, the mean and lower-quartile
utility, staircase passes per peel, and onion seconds (the cold plan's
for a fleet, the sum over plans for a library run).  Every case runs in
a fresh subprocess that imports its checkout's ``src``; the fleets come
from this tree's ``benchmarks``.  Only the seconds are timing; the rest
is a pure function of the checkout.

Run from the repository root::

    python benchmarks/sacrifice.py --tree parent=../parent --tree change=.

The first ``--tree`` is the baseline.  The result is written into
``BENCH_onion.json`` under ``sacrifice`` (or into ``--out``).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: ``(jobs, seed)`` of each planned fleet.
FLEETS = ((300, 0), (1000, 0), (2000, 0), (4000, 5), (10000, 5))
SCENARIOS = ("mixed-tenancy", "web-bursty", "hpc-replay")
SEEDS = tuple(range(8))
#: ``RushPlanner``'s and ``RushScheduler``'s bisection tolerance here.
TOLERANCE = 0.05


def summarize(utilities: Sequence[float], passes: int, peels: int,
              onion_seconds: float) -> Dict[str, Any]:
    values = np.asarray(utilities, dtype=float)
    return {
        "jobs": int(values.size),
        "zero_at_floor_plus_tolerance": int((values <= TOLERANCE).sum()),
        "zero_at_1e-9": int((values <= 1e-9).sum()),
        "mean_utility": round(float(values.mean()), 4) if values.size else 0.0,
        "lower_quartile_utility": (round(float(np.quantile(values, 0.25)), 4)
                                   if values.size else 0.0),
        "passes": passes,
        "peels": peels,
        "passes_per_peel": round(passes / max(peels, 1), 2),
        "onion_seconds": round(onion_seconds, 3),
    }


def probe(checkout: str, kind: str, name: str, seed: int) -> Dict[str, Any]:
    """One case on one checkout, in this process."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from repro.core.planner import RushPlanner

    if kind == "fleet":
        sys.path.insert(1, str(ROOT / "benchmarks"))
        from bench_planner_incremental import (CAPACITY, DELTA, THETA,
                                               _make_jobs)

        jobs = _make_jobs(int(name), seed=seed)
        plan = RushPlanner(capacity=CAPACITY, theta=THETA, delta=DELTA,
                           tolerance=TOLERANCE).plan(jobs)
        stats = plan.stats
        return summarize([job.predicted_utility for job in plan.jobs.values()],
                         stats.feasibility_checks, stats.peels,
                         stats.onion_seconds)

    from repro.workload.scenarios import run_scenario

    acc = {"passes": 0, "peels": 0, "onion": 0.0}
    solve = RushPlanner.plan

    def plan(self: Any, *args: Any, **kwargs: Any) -> Any:
        result = solve(self, *args, **kwargs)
        acc["passes"] += result.stats.feasibility_checks
        acc["peels"] += result.stats.peels
        acc["onion"] += result.stats.onion_seconds
        return result

    with mock.patch.object(RushPlanner, "plan", plan):
        outcome = run_scenario(name, seed=seed, fast=True, baselines=())
    row = summarize([r.utility_value for r in outcome.results["rush"].records],
                    int(acc["passes"]), int(acc["peels"]), acc["onion"])
    row["digest"] = outcome.digest()
    return row


def _spawn(checkout: str, kind: str, name: str, seed: int) -> Dict[str, Any]:
    out = subprocess.run(
        [sys.executable, __file__, "--probe", checkout, kind, name,
         str(seed)], check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def measure(trees: Dict[str, str], cases: List[tuple]) -> List[Dict[str, Any]]:
    """Every case on every tree, alternating which tree goes first."""
    labels = list(trees)
    rows = []
    for k, (kind, name, seed) in enumerate(cases):
        row: Dict[str, Any] = {kind: name, "seed": seed}
        for label in labels[k % len(labels):] + labels[:k % len(labels)]:
            started = time.perf_counter()
            row[label] = _spawn(trees[label], kind, name, seed)
            print(f"{kind} {name} seed {seed} {label}: "
                  f"{row[label]['zero_at_floor_plus_tolerance']} at the "
                  f"floor, {time.perf_counter() - started:.1f} s",
                  file=sys.stderr)
        rows.append({key: row[key] for key in [kind, "seed", *labels]})
    return rows


def main(argv: List[str]) -> int:
    if argv[:1] == ["--probe"]:
        checkout, kind, name, seed = argv[1:5]
        print(json.dumps(probe(checkout, kind, name, int(seed))))
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True,
                        metavar="LABEL=CHECKOUT",
                        help="a checkout to measure (the first is the "
                        "baseline)")
    parser.add_argument("--fleets", nargs="*", default=None,
                        metavar="JOBS:SEED",
                        help="fleets to plan (default: all five)")
    parser.add_argument("--seeds", nargs="*", type=int, default=list(SEEDS),
                        help="library seeds (default 0-7; none to skip)")
    parser.add_argument("--out", help="write the JSON here, not into "
                        "BENCH_onion.json")
    args = parser.parse_args(argv)
    trees = dict(tree.split("=", 1) for tree in args.tree)
    fleets = (FLEETS if args.fleets is None else
              [tuple(map(int, f.split(":"))) for f in args.fleets])
    labels = list(trees)
    base, others = labels[0], labels[1:]
    result: Dict[str, Any] = {
        "harness": "benchmarks/sacrifice.py",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "trees": labels,
        "tolerance": TOLERANCE,
        "fleets": measure(trees, [("fleet", str(n), seed)
                                  for n, seed in fleets]),
        "library": measure(trees, [("scenario", name, seed)
                                   for name in SCENARIOS
                                   for seed in args.seeds]),
    }
    result["totals"] = {
        label: {part: sum(row[label]["zero_at_floor_plus_tolerance"]
                          for row in result[part])
                for part in ("fleets", "library")}
        for label in labels}
    result["library_zero_count_above_baseline"] = [
        f"{row['scenario']} seed {row['seed']} ({label})"
        for row in result["library"] for label in others
        if row[label]["zero_at_floor_plus_tolerance"]
        > row[base]["zero_at_floor_plus_tolerance"]]
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        write_last_key(ROOT / "BENCH_onion.json", "sacrifice", text)
    print(text)
    return 0


def write_last_key(path: Path, key: str, value: str) -> None:
    """Make ``key`` the last key of the JSON object in ``path``, with every
    byte before it left as it was (the file's other tables are formatted
    by hand)."""
    text = path.read_text(encoding="utf-8").rstrip()
    cut = text.find(f'\n "{key}": ')
    head = text[:cut].rstrip(",") if cut >= 0 else text[:-1].rstrip()
    path.write_text(f'{head},\n "{key}": ' + value.replace("\n", "\n ")
                    + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
