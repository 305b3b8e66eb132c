"""Compare two ledger files: ``python3 compare.py A.json B.json``.

For every workload x end-to-end metric it prints both medians, both
quartile ranges, the relative difference (positive = B is worse) and a
verdict by the metric's regression bound (recorded in the ledger file;
``BENCHMARK.json``'s for the service workloads):

``same``        B's median is within the bound of A's;
``worse``       B's median is worse than A's by more than the bound;
``better``      B's median is better than A's by more than the bound;
``unresolved``  A's own run-to-run spread (interquartile range over its
                median) is wider than the bound, and the runs of the two
                sides overlap — the metric cannot tell on this pair.

Exit code 1 when any row is ``worse``.  A and B are files written by
``run.py --out``; to compare a change with its parent, run the ledger on
both commits with identical arguments.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any, Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """First and third quartile; a single run is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[float, str]:
    """(relative difference with worse > 0, verdict) for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    diff = sign * (med_b - med_a) / abs(med_a)
    q1, q3 = quartiles(a)
    spread = (q3 - q1) / abs(med_a)
    worse_all = all(sign * (y - x) > 0 for x in a for y in b)
    better_all = all(sign * (y - x) < 0 for x in a for y in b)
    if spread > bound and not (worse_all or better_all):
        return diff, "unresolved"
    if diff > bound:
        return diff, "worse"
    if diff < -bound:
        return diff, "better"
    return diff, "same"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[List[str]]:
    rows = []
    for workload, entry in a["workloads"].items():
        other = b["workloads"].get(workload, {}).get("end_to_end", {})
        for name, metric in entry["end_to_end"].items():
            if name not in other:
                continue
            va, vb = metric["values"], other[name]["values"]
            diff, word = verdict(va, vb, metric["better"], metric["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            rows.append([
                workload, name, metric["unit"],
                f"{statistics.median(va):.4g}", f"{qa[0]:.4g}..{qa[1]:.4g}",
                f"{statistics.median(vb):.4g}", f"{qb[0]:.4g}..{qb[1]:.4g}",
                f"{diff:+.1%}", f"{metric['bound']:.0%}", word])
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        a = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        b = json.load(handle)
    header = ["workload", "metric", "unit", "A median", "A q1..q3",
              "B median", "B q1..q3", "B vs A", "bound", "verdict"]
    rows = compare(a, b)
    widths = [max(len(row[k]) for row in [header] + rows)
              for k in range(len(header))]
    for row in [header] + rows:
        print("  ".join(cell.ljust(width)
                        for cell, width in zip(row, widths)).rstrip())
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
