"""What a restart costs after a long uptime: ``recover_engine`` on
``long-uptime``'s write stream at several history lengths.

For each tree and history length this builds the journal the perf
ledger's ``long-uptime`` workload starts from — ``driver.build_history``,
``api-mixed``'s write stream applied in process, one tick per slot,
compacting as segments fill — and then, in a fresh interpreter, times
``recover_engine`` on it.  Both steps run in subprocesses with the
tree's ``src`` first on the path, so one harness measures a parent
checkout and the change alike; the ledger (``benchmarks/ledger``) is
imported read-only, and nothing is patched.

Per run it records the recovery's seconds (``time.perf_counter``
around the call, interpreter start-up excluded) and what was replayed:

* ``records_after_anchor`` — WAL records past the anchor's
  ``journal_seq`` (recovery's ``applied``);
* ``anchor_entries`` — events an input-freezing (version 1–3) anchor
  makes recovery replay first, 0 for a version-4 state anchor;
* ``replayed`` — the two together: every event recovery re-executes;
* ``written`` — records the history wrote (the last seq).

Trees alternate run by run, so host drift lands on every side alike.
The counts are exact and repeat on every host; the seconds do not.

Run from the repository root::

    python benchmarks/recovery.py --tree parent=../parent --tree change=.

``--quick`` measures only the first tree, once per history, and exits 1
when the replayed count grows with history: with suffix-only recovery
every history replays at most one segment's worth of records, so the
longest history may replay no more than the shortest one wrote.
Without ``--quick`` the result is written to ``BENCH_recovery.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "benchmarks" / "ledger"

HISTORIES = (150, 300, 600)
QUICK_HISTORIES = (150, 600)
SEED = 0
RUNS = 3

#: Builds the history journal (argv: directory, slots) with the ledger's
#: own set-up code, the way the ``long-uptime`` workload does.
BUILD = """
import sys
from pathlib import Path
from driver import SERVICE_WORKLOADS, build_history
directory, slots, seed = Path(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
build_history(directory, seed, SERVICE_WORKLOADS["long-uptime"]["capacity"],
              slots)
"""

#: Times one recovery of that journal and prints what it replayed.
RECOVER = """
import json, sys, time
from pathlib import Path
from repro.service.journal import ANCHOR_NAME, recover_engine
directory = Path(sys.argv[1])
anchor = json.loads((directory / ANCHOR_NAME).read_text())
started = time.perf_counter()
engine, stats = recover_engine(directory)
seconds = time.perf_counter() - started
entries = len(anchor.get("journal") or ())
print(json.dumps({"seconds": seconds, "records_after_anchor": stats["applied"],
                  "anchor_entries": entries,
                  "replayed": stats["applied"] + entries,
                  "written": stats["last_seq"],
                  "anchor_version": anchor["version"],
                  "slot": engine.slot,
                  "decisions_digest": engine.decisions_digest()}))
"""


def _python(src: Path, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(LEDGER)]))
    done = subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, env=env)
    return done.stdout


def measure_once(src: Path, slots: int) -> Dict[str, Any]:
    """Build a ``slots``-slot history with ``src`` and recover it once."""
    scratch = Path(tempfile.mkdtemp(prefix="rush-recovery-"))
    try:
        _python(src, BUILD, str(scratch / "wal"), str(slots), str(SEED))
        return json.loads(_python(src, RECOVER, str(scratch / "wal")))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(trees: List[Tuple[str, Path]], histories: List[int], runs: int
            ) -> Dict[str, Dict[str, Any]]:
    raw: Dict[str, Dict[int, List[Dict[str, Any]]]] = {
        label: {} for label, _ in trees}
    for slots in histories:
        for k in range(runs):
            order = trees[k % len(trees):] + trees[:k % len(trees)]
            for label, src in order:
                run = measure_once(src, slots)
                raw[label].setdefault(slots, []).append(run)
                print(f"{slots} slots, run {k}, {label}: "
                      f"{run['seconds']:.3f} s, {run['replayed']} "
                      f"replayed of {run['written']} written "
                      f"(anchor v{run['anchor_version']})", flush=True)
    out: Dict[str, Dict[str, Any]] = {}
    for label, by_slots in raw.items():
        out[label] = {}
        for slots, cell in by_slots.items():
            exact = ("records_after_anchor", "anchor_entries", "replayed",
                     "written", "anchor_version", "slot", "decisions_digest")
            for key in exact:
                if len({run[key] for run in cell}) != 1:
                    raise AssertionError(f"{label} {slots}: {key} differs "
                                         "between runs")
            summary = {key: cell[0][key] for key in exact}
            summary["seconds"] = statistics.median(r["seconds"] for r in cell)
            summary["seconds_runs"] = [round(r["seconds"], 4) for r in cell]
            out[label][str(slots)] = summary
    return out


def replay_grows(result: Dict[str, Any]) -> bool:
    """Whether the longest history replays more than the shortest wrote."""
    cells = sorted(result.items(), key=lambda item: int(item[0]))
    return cells[-1][1]["replayed"] > cells[0][1]["written"]


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", default=[],
                        metavar="LABEL=CHECKOUT",
                        help="a checkout to measure (repeatable; default "
                             "change=.)")
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    trees = [(label, (Path(path).resolve() / "src"))
             for label, path in (item.split("=", 1)
                                 for item in args.tree or ["change=."])]
    if args.quick:
        label, src = trees[0]
        result = measure([(label, src)], list(QUICK_HISTORIES), 1)[label]
        if replay_grows(result):
            print("FAIL: the replayed-record count grows with history",
                  file=sys.stderr)
            return 1
        print("ok: the replayed-record count stays flat in history")
        return 0

    results = measure(trees, list(HISTORIES), RUNS)
    payload = {
        "benchmark": "recovery",
        "harness": "benchmarks/recovery.py",
        "workload": "long-uptime write stream (driver.build_history), "
                    f"seed {SEED}",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "runs": RUNS,
        "trees": results,
    }
    (ROOT / "BENCH_recovery.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
