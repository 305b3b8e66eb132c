"""Self-test of the ledger in ``--quick`` mode (about two minutes).

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it
explicitly after touching anything under ``benchmarks/ledger``::

    python3 -m pytest benchmarks/ledger/test_ledger_quick.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

import run  # noqa: E402
from attribution import PER_LAYER_UNITS, check_nesting  # noqa: E402

CONTRACT = run.load_contract()


def test_contract_names_what_the_ledger_reports():
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} \
        == PER_LAYER_UNITS
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    # offline-core is in the ledger but not in the driver's contract
    assert [w["name"] for w in CONTRACT["workloads"]] + [run.OFFLINE] \
        == run.WORKLOADS


def test_quick_ledger_reports_every_metric(tmp_path):
    out = tmp_path / "quick.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "1",
         "--out", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert ledger["meta"]["claim"] is None
    for workload in run.WORKLOADS:
        entry = ledger["workloads"][workload]
        assert entry["problems"] == []
        assert entry["failed"] == 0
        for metric in run.end_to_end_spec(workload):
            got = entry["end_to_end"][metric["name"]]
            assert got["unit"] == metric["unit"]
            assert got["median"] > 0, (workload, metric["name"])
            assert f"{metric['name']:<40}" in proc.stdout
        for name in PER_LAYER_UNITS:
            assert name in entry["per_layer"], (workload, name)
            assert f"{name:<40}" in proc.stdout


@pytest.mark.parametrize("workload", ["api-mixed", "offline-core"])
def test_single_traced_run_prints_the_contract_line_and_nests(workload):
    result = run.run_once(workload, seed=2, seconds=run.QUICK_SECONDS,
                          traced=True, quick=True)
    assert result["problems"] == []
    line = json.loads(run.result_line(result, PER_LAYER_UNITS))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    assert set(line["metrics"]) == set(PER_LAYER_UNITS)
    for spans in result["spans"].values():
        assert len(spans) > 100
        # child inside parent, self time >= 0, and the per-layer self
        # times under every root sum to within 10 % of the root span
        assert check_nesting(spans) == []
    if workload == "api-mixed":
        shares = result["diagnostics"]
        for kind in ("tick", "submit"):
            total = sum(value for name, value in shares.items()
                        if name.startswith(f"share.{kind}."))
            assert total == pytest.approx(1.0, abs=0.02)
