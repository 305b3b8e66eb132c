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
around the call, interpreter start-up excluded), what was replayed and
what the anchor holds:

* ``records_after_anchor`` — WAL records past the anchor's
  ``journal_seq`` (recovery's ``applied``);
* ``anchor_entries`` — events an input-freezing (version 1–3) anchor
  makes recovery replay first, 0 for a state anchor (version 4 on);
* ``replayed`` — the two together: every event recovery re-executes;
* ``written`` — records the history wrote (the last seq);
* ``anchor_bytes`` — the size of ``anchor.json`` (it moves by a few
  bytes between runs: the anchor carries the planner's wall-clock
  seconds);
* ``anchor_job_entries`` — jobs the anchor writes in full, spec and
  attempts (a version-4 anchor writes every job so, a version-5 one
  only the live jobs and a flat row for each finished one);
* ``anchor_retired_rows`` — those flat rows (0 before version 5);
* ``peak_bytes`` — the ``tracemalloc`` peak of ``recover_engine``, taken
  in a second fresh interpreter so that tracing does not slow the timed
  call.

Trees alternate run by run, so host drift lands on every side alike.
The counts are exact and repeat on every host; the seconds do not, and
the bytes and the peak move a little (the anchor's wall-clock seconds,
the Python build).  Those three are medians over the runs.

Run from the repository root::

    python benchmarks/recovery.py --tree parent=../parent --tree change=.

``--quick`` measures only the first tree, once per history, and exits 1
when the replayed count grows with history: with suffix-only recovery
every history replays at most one segment's worth of records, so the
longest history may replay no more than the shortest one wrote.  It
exits 1 too when the anchor's full job entries grow with history: once
finished jobs retire to rows, only the live fleet is written in full, so
the longest history's anchor may hold no more full entries than the
shortest one's holds jobs of either kind.
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

#: Times one recovery of that journal and prints what it replayed and
#: what the anchor holds.
RECOVER = """
import json, sys, time
from pathlib import Path
from repro.service.journal import ANCHOR_NAME, recover_engine
directory = Path(sys.argv[1])
path = directory / ANCHOR_NAME
anchor = json.loads(path.read_text())
started = time.perf_counter()
engine, stats = recover_engine(directory)
seconds = time.perf_counter() - started
entries = len(anchor.get("journal") or ())
sim = anchor.get("state", {}).get("sim", {})
rows = [item for key in ("completed", "cancelled")
        for item in sim.get(key, ()) if isinstance(item, list)]
print(json.dumps({"seconds": seconds, "records_after_anchor": stats["applied"],
                  "anchor_entries": entries,
                  "replayed": stats["applied"] + entries,
                  "written": stats["last_seq"],
                  "anchor_version": anchor["version"],
                  "anchor_bytes": path.stat().st_size,
                  "anchor_job_entries": len(sim.get("jobs", ())),
                  "anchor_retired_rows": len(rows),
                  "slot": engine.slot,
                  "decisions_digest": engine.decisions_digest()}))
"""

#: The ``tracemalloc`` peak of one recovery of that journal, in bytes.
PEAK = """
import sys, tracemalloc
from repro.service.journal import recover_engine
tracemalloc.start()
recover_engine(sys.argv[1])
print(tracemalloc.get_traced_memory()[1])
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
        run = json.loads(_python(src, RECOVER, str(scratch / "wal")))
        run["peak_bytes"] = int(_python(src, PEAK, str(scratch / "wal")))
        return run
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
                      f"replayed of {run['written']} written, anchor "
                      f"v{run['anchor_version']} {run['anchor_bytes']} B "
                      f"with {run['anchor_job_entries']} full job entries, "
                      f"peak {run['peak_bytes'] / 1e6:.1f} MB", flush=True)
    out: Dict[str, Dict[str, Any]] = {}
    for label, by_slots in raw.items():
        out[label] = {}
        for slots, cell in by_slots.items():
            exact = ("records_after_anchor", "anchor_entries", "replayed",
                     "written", "anchor_version", "anchor_job_entries",
                     "anchor_retired_rows", "slot", "decisions_digest")
            for key in exact:
                if len({run[key] for run in cell}) != 1:
                    raise AssertionError(f"{label} {slots}: {key} differs "
                                         "between runs")
            summary = {key: cell[0][key] for key in exact}
            summary["seconds"] = statistics.median(r["seconds"] for r in cell)
            summary["seconds_runs"] = [round(r["seconds"], 4) for r in cell]
            for key in ("anchor_bytes", "peak_bytes"):
                summary[key] = int(statistics.median(r[key] for r in cell))
            out[label][str(slots)] = summary
    return out


def _cells(result: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [cell for _, cell in sorted(result.items(),
                                       key=lambda item: int(item[0]))]


def replay_grows(result: Dict[str, Any]) -> bool:
    """Whether the longest history replays more than the shortest wrote."""
    cells = _cells(result)
    return cells[-1]["replayed"] > cells[0]["written"]


def anchor_grows(result: Dict[str, Any]) -> bool:
    """Whether the longest history's anchor writes more jobs in full than
    the shortest history's anchor holds jobs at all."""
    cells = _cells(result)
    shortest = cells[0]["anchor_job_entries"] + cells[0]["anchor_retired_rows"]
    return cells[-1]["anchor_job_entries"] > shortest


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
        failed = False
        if replay_grows(result):
            print("FAIL: the replayed-record count grows with history",
                  file=sys.stderr)
            failed = True
        if anchor_grows(result):
            print("FAIL: the anchor's full job entries grow with history",
                  file=sys.stderr)
            failed = True
        if failed:
            return 1
        print("ok: the replayed-record count and the anchor's full job "
              "entries stay flat in history")
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
