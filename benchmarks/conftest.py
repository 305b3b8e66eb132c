"""Pytest configuration for the benchmark harness."""

from __future__ import annotations

import sys
from pathlib import Path

# Make the sibling `_shared` module importable regardless of rootdir, and
# `tests.tas_lp` (the LP oracle bench_ablation_onion_vs_lp compares
# against; it ships with the tests, not the package).
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
