"""The perf ledger: one command from socket to solver.

Two ways to run it::

    # one run of one workload — what the benchmark driver calls; the last
    # line of stdout is the result object the contract asks for
    python3 benchmarks/ledger/run.py --workload api-mixed --seed 3 \\
        --seconds 20 --trace 0

    # the whole ledger: every workload, --repeats untraced runs (medians)
    # plus one traced run, every metric printed, optionally saved
    python3 benchmarks/ledger/run.py --seed 3 --out results/mine.json

``--trace 0`` reports the end-to-end metrics from an untraced run;
``--trace 1`` (or ``--traced``) runs the server under the tracing
launcher and reports the per-layer metrics.  ``--quick`` shrinks every
workload to a smoke test.  Exit code 0: measured and correct; 1: an
output check failed; 3: a validity guard tripped (the run is *invalid*,
not slow) — no result line is printed for it.  A single-workload run
that trips a guard is measured once more before it is given up.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit("the ledger measures the program under src/repro; "
             "this checkout has none")
sys.path.insert(0, str(REPO_ROOT / "src"))

import offline  # noqa: E402  (needs src/ on the path)
from attribution import PER_LAYER_UNITS  # noqa: E402
from driver import (SERVICE_WORKLOADS, InvalidRun,  # noqa: E402
                    run_service_workload)

QUICK_SECONDS = 5
OFFLINE = "offline-core"
WORKLOADS = list(SERVICE_WORKLOADS) + [OFFLINE]


def load_contract() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_once(workload: str, *, seed: int, seconds: float, traced: bool,
             quick: bool) -> Dict[str, Any]:
    """One run; per-layer metrics the workload has no samples for read 0."""
    if workload == OFFLINE:
        result = offline.run_offline(seed=seed, quick=quick, traced=traced)
    else:
        result = asyncio.run(run_service_workload(
            workload, seed=seed, seconds=seconds, quick=quick, traced=traced))
    if traced:
        for name in PER_LAYER_UNITS:
            result["diagnostics"].setdefault(name, 0.0)
    return result


def end_to_end_spec(workload: str) -> List[Dict[str, Any]]:
    """The workload's end-to-end metrics: name, unit, better, bound."""
    if workload == OFFLINE:
        return offline.END_TO_END
    return load_contract()["end_to_end"]


def print_metrics(title: str, values: Dict[str, float],
                  units: Dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.4f} {units.get(name, '')}")


def result_line(result: Dict[str, Any], names: Dict[str, str]) -> str:
    """The contract's result object for one run."""
    pool = {**result["metrics"], **result["diagnostics"]}
    return json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": pool[name], "unit": unit}
                    for name, unit in names.items()},
    })


def commit_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_ledger(args: argparse.Namespace) -> int:
    """Every workload: ``repeats`` untraced runs and one traced run."""
    repeats = args.repeats or (1 if args.quick else 3)
    ledger: Dict[str, Any] = {
        "meta": {"commit": commit_hash(), "python": platform.python_version(),
                 "nproc": os.cpu_count(), "seed": args.seed,
                 "seconds": args.seconds, "repeats": repeats,
                 "quick": args.quick, "claim": None},
        "workloads": {},
    }
    status = 0
    for workload in WORKLOADS:
        runs = [run_once(workload, seed=args.seed, seconds=args.seconds,
                         traced=False, quick=args.quick)
                for _ in range(repeats)]
        traced = run_once(workload, seed=args.seed, seconds=args.seconds,
                          traced=True, quick=args.quick)
        problems = [p for run in runs + [traced] for p in run["problems"]]
        end_to_end = {}
        for metric in end_to_end_spec(workload):
            values = [run["metrics"][metric["name"]] for run in runs]
            end_to_end[metric["name"]] = {
                **{k: metric[k] for k in ("unit", "better", "bound")},
                "values": values, "median": statistics.median(values)}
        per_layer = dict(traced["diagnostics"])
        if workload != OFFLINE:
            per_layer["trace.overhead_ratio"] = (
                traced["metrics"]["server_cpu_s"]
                / end_to_end["server_cpu_s"]["median"])
        ledger["workloads"][workload] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": runs[-1]["attempted"], "failed": runs[-1]["failed"],
            "conflicts": runs[-1]["conflicts"], "samples": runs[-1]["samples"],
            "problems": problems,
        }
        print(f"\n== {workload} (seed {args.seed}, {repeats} run(s)) ==")
        print_metrics("end-to-end (median):",
                      {n: m["median"] for n, m in end_to_end.items()},
                      {n: m["unit"] for n, m in end_to_end.items()})
        print_metrics("per-layer (traced run):", per_layer, PER_LAYER_UNITS)
        print(f"  samples {runs[-1]['samples']}, "
              f"{runs[-1]['conflicts']} cancel(s) answered 409")
        for problem in problems:
            print(f"  CHECK FAILED: {problem}")
            status = 1
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        print(f"\nwrote {out}")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window of a service workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="same as --trace 1")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced runs per workload in ledger mode "
                             "(default 3)")
    parser.add_argument("--quick", action="store_true",
                        help="5 s windows, 200-slot history, 12-job "
                             "simulation, 300-job plans, one repeat")
    parser.add_argument("--out", help="ledger mode: write the result JSON")
    args = parser.parse_args(argv)

    contract = load_contract()
    if args.quick:
        args.seconds = QUICK_SECONDS
    elif args.seconds is None:
        args.seconds = contract["run_seconds"]
    traced = args.traced or args.trace == 1

    try:
        if args.workload is None:
            return run_ledger(args)
        started = time.perf_counter()
        try:
            result = run_once(args.workload, seed=args.seed,
                              seconds=args.seconds, traced=traced,
                              quick=args.quick)
        except InvalidRun as exc:
            # The guards that can trip on a sound schedule (generator
            # lateness, pacer lag) are host noise: measure once more.
            print(f"INVALID RUN, measuring again: {exc}", file=sys.stderr)
            result = run_once(args.workload, seed=args.seed,
                              seconds=args.seconds, traced=traced,
                              quick=args.quick)
    except InvalidRun as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 3
    e2e_units = {m["name"]: m["unit"] for m in end_to_end_spec(args.workload)}
    print(f"== {args.workload} (seed {args.seed}, "
          f"{time.perf_counter() - started:.1f} s) ==")
    print_metrics("end-to-end:", result["metrics"], e2e_units)
    print_metrics("per-layer:", result["diagnostics"], PER_LAYER_UNITS)
    print(f"  samples {result['samples']}, "
          f"{result['conflicts']} cancel(s) answered 409, "
          f"offered {result.get('offered_share', 0.0):.2f} x capacity")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(result_line(result, PER_LAYER_UNITS if traced else e2e_units))
    return 1 if result["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
