"""Ablation — task failures and failure-aware estimation (future work).

The paper's conclusion announces failure-probability estimation as future
work.  This benchmark realizes it: the Section V-B workload is rerun with
task attempts failing (and retrying) with probability ``p``, comparing

* plain RUSH, whose Gaussian DE never hears about failures, against
* failure-aware RUSH, whose DE wraps the Gaussian one in a
  :class:`~repro.estimation.failure.FailureAwareEstimator` that learns
  the failure rate online and inflates demand by the expected
  re-execution work.

Shape: with ``p = 0``, the wrapper is harmless (weak prior); as ``p``
grows, the failure-aware variant's utility should not fall below plain
RUSH's, since its demand model matches the flaky world.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import FailureAwareEstimator, GaussianEstimator, RushScheduler, run_simulation
from repro.analysis import format_table
from repro.workload import WorkloadConfig, WorkloadGenerator

from _shared import FULL_SCALE, write_report

FAILURE_PROBS = (0.0, 0.1, 0.25)
SEEDS = (0, 1, 2) if not FULL_SCALE else (0,)


def failure_aware_factory(spec):
    return FailureAwareEstimator(
        GaussianEstimator(prior_mean=spec.prior_runtime, min_samples=2))


def run_variant(failure_prob: float, aware: bool, seed: int):
    config = WorkloadConfig(
        n_jobs=25 if not FULL_SCALE else 100,
        capacity=8 if not FULL_SCALE else 48,
        mean_interarrival=170.0 if not FULL_SCALE else 130.0,
        budget_ratio=1.5,
        size_gb_range=(0.5, 2.0) if not FULL_SCALE else (1.0, 10.0),
        time_scale=0.25 if not FULL_SCALE else 1.0,
        failure_prob=failure_prob)
    specs = WorkloadGenerator(config, seed=seed).generate()
    scheduler = (RushScheduler(estimator_factory=failure_aware_factory)
                 if aware else RushScheduler())
    return run_simulation(specs, config.capacity, scheduler, seed=seed)


def compute_grid():
    grid = {}
    for p in FAILURE_PROBS:
        for aware in (False, True):
            utilities, failures = [], 0
            for seed in SEEDS:
                result = run_variant(p, aware, seed)
                utilities.extend(result.utilities())
                failures += result.task_failures
            grid[(p, aware)] = (float(np.sum(utilities)),
                                float(np.mean(np.asarray(utilities) <= 1e-9)),
                                failures)
    return grid


def test_failure_aware_estimation(benchmark):
    grid = benchmark.pedantic(compute_grid, rounds=1, iterations=1)

    rows = []
    for p in FAILURE_PROBS:
        plain = grid[(p, False)]
        aware = grid[(p, True)]
        rows.append([p, plain[2], plain[0], aware[0], plain[1], aware[1]])
    table = format_table(
        ["failure prob", "#failures", "plain total U", "aware total U",
         "plain zero-frac", "aware zero-frac"], rows)
    report = ("Ablation: task failures and failure-aware demand estimation "
              f"(seeds={list(SEEDS)})\n\n{table}")
    print("\n" + report)
    write_report("ablation_failures.txt", report)

    # Failures actually happen when p > 0 ...
    assert grid[(0.0, False)][2] == 0
    assert grid[(0.25, False)][2] > 0
    # ... degrade utility ...
    assert grid[(0.25, False)][0] < grid[(0.0, False)][0]
    # ... and the failure-aware DE does not hurt in the flaky worlds.
    for p in (0.1, 0.25):
        assert grid[(p, True)][0] >= 0.9 * grid[(p, False)][0]
