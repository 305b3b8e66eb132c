"""Ablation — onion peeling vs the linear-programming TAS baseline.

Section III-B claims the TAS problem *could* be solved with LP (the
authors' earlier CORA approach) but that the per-job-per-slot decision
variables make the LP slow as instances grow, motivating onion peeling.

This benchmark solves identical instances with both oracles, checks the
utility vectors agree (Theorem 2 makes the feasibility tests equivalent)
and reports the runtime gap, which should widen with the job count.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import format_table
from repro.core.onion import OnionJob, solve_onion
from repro.utility import ConstantUtility, LinearUtility, SigmoidUtility
from tests.tas_lp import solve_tas_lp

from _shared import FULL_SCALE, write_report

JOB_COUNTS = (4, 8, 16) if not FULL_SCALE else (4, 8, 16, 32)
_ROWS: dict = {}


def random_instance(n: int, seed: int) -> list:
    rng = np.random.default_rng(seed)
    jobs = []
    for i in range(n):
        demand = float(rng.integers(5, 60))
        budget = float(rng.integers(10, 80))
        priority = float(rng.integers(1, 6))
        kind = int(rng.integers(3))
        if kind == 0:
            utility = LinearUtility(budget, priority)
        elif kind == 1:
            utility = SigmoidUtility(budget, priority, beta=0.2)
        else:
            utility = ConstantUtility(priority)
        jobs.append(OnionJob(f"j{i}", demand, utility))
    return jobs


@pytest.mark.parametrize("n_jobs", JOB_COUNTS)
def test_onion_matches_lp_and_is_faster(benchmark, n_jobs):
    capacity = 4
    jobs = random_instance(n_jobs, seed=n_jobs)

    t0 = time.perf_counter()
    lp = solve_tas_lp(jobs, capacity, tolerance=1e-3)
    lp_seconds = time.perf_counter() - t0

    onion = benchmark.pedantic(
        lambda: solve_onion(jobs, capacity, tolerance=1e-3),
        rounds=3, iterations=1)
    onion_seconds = benchmark.stats.stats.mean

    for u_lp, u_onion in zip(lp.utility_vector(), onion.utility_vector()):
        assert u_lp == pytest.approx(u_onion, abs=0.05, rel=0.02)

    speedup = lp_seconds / max(onion_seconds, 1e-9)
    _ROWS[n_jobs] = (onion_seconds * 1e3, lp_seconds * 1e3, speedup)
    assert speedup > 1.0, "onion peeling should beat the LP oracle"

    if len(_ROWS) == len(JOB_COUNTS):
        rows = [[n, *_ROWS[n]] for n in JOB_COUNTS]
        table = format_table(
            ["jobs", "onion ms", "LP ms", "LP/onion"], rows, digits=2)
        report = ("Ablation: onion peeling vs LP feasibility oracle "
                  f"(identical answers asserted)\n\n{table}")
        print("\n" + report)
        write_report("ablation_onion_vs_lp.txt", report)
