#!/usr/bin/env python3
"""Scheduling in a hostile cluster: task failures and re-execution.

The paper's whole premise is that shared infrastructure makes runtimes
uncertain.  This example dials the hostility up — task attempts fail with
probability ``p`` and must be re-executed — and compares three responses:

* plain FIFO (pretend nothing is wrong),
* plain RUSH (robust percentile demand, but failure-blind), and
* failure-aware RUSH (the paper's future-work extension: the DE unit
  learns the failure rate online and inflates demand accordingly).

Run:  python examples/uncertain_cluster.py [--failure-prob P]
"""

from __future__ import annotations

import argparse

from repro import (
    FailureAwareEstimator,
    FifoScheduler,
    GaussianEstimator,
    RushScheduler,
    run_simulation,
)
from repro.analysis import boxplot_stats, format_boxplots, format_table
from repro.workload import WorkloadConfig, WorkloadGenerator


def failure_aware_factory(spec):
    return FailureAwareEstimator(
        GaussianEstimator(prior_mean=spec.prior_runtime, min_samples=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--failure-prob", type=float, default=0.15)
    parser.add_argument("--jobs", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = WorkloadConfig(
        n_jobs=args.jobs, capacity=8, mean_interarrival=170.0,
        budget_ratio=1.5, size_gb_range=(0.5, 2.0), time_scale=0.25,
        failure_prob=args.failure_prob)
    specs = WorkloadGenerator(config, seed=args.seed).generate()
    print(f"{args.jobs} jobs, task failure probability "
          f"{args.failure_prob:.0%}\n")

    policies = {
        "FIFO": lambda: FifoScheduler(),
        "RUSH": lambda: RushScheduler(),
        "RUSH+fail-aware": lambda: RushScheduler(
            estimator_factory=failure_aware_factory),
    }
    results = {name: run_simulation(specs, config.capacity, factory(),
                                    seed=args.seed)
               for name, factory in policies.items()}

    print("Latency of sensitive + critical jobs (runtime - budget):")
    print(format_boxplots({
        name: boxplot_stats(r.latencies("critical", "sensitive"))
        for name, r in results.items()
    }))

    rows = []
    for name, result in results.items():
        rows.append([
            name, result.task_failures, result.total_utility(),
            result.zero_utility_fraction,
        ])
    print("\nFailure handling summary:")
    print(format_table(
        ["policy", "task failures", "total utility", "zero-utility frac"],
        rows))
    print("\nReading: failures inflate every policy's latency; the "
          "failure-aware DE lets RUSH budget for re-execution work before "
          "it happens.")


if __name__ == "__main__":
    main()
