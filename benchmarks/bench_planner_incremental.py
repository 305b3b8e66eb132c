"""Self-relative gate for the planning engine.

What the perf ledger (``benchmarks/ledger``) does not measure, and
nothing else: no baseline other than the code under test.

* ``obs_overhead`` — steady-state replanning of an unchanged snapshot
  with the ``repro.obs`` span tracer + metrics registry + completion
  ledger enabled versus the default null instruments, on the same code.
  Gate: enabled/disabled wall-clock ratio <= 1.10 (the observability
  layer must stay out of the hot path).
* ``scale_sweep`` — one cold plan at 1k jobs (plus 5k and 10k under
  ``RUSH_FULL_SCALE=1``; the CI bench-smoke lane runs 1k only), reported
  in absolute seconds.  Gate: the uncached cold plan
  (``wcde_cache_size=0``), one planner's first plan and its replan of the
  unchanged snapshot (every robust demand a cache hit) are bit-identical
  at every scale.
* ``certificates`` — one cold plan of a 200-job fleet that fits its
  capacity (the shape of the ledger's ``batch`` profile), reported as
  counts: peels, staircase passes evaluated, probes a certificate
  answered.  Gate: passes <= 1.5 x peels.  Deterministic, so the lane
  catches a certificate that stopped firing without timing anything.
* ``plan_stability`` — how much of plan(t) survives into plan(t+1) on
  the ledger's ``steady-fleet`` and ``api-mixed`` write streams (100
  slots, seeds 3 and 5, applied slot by slot to an in-process
  ``ServiceEngine``): consecutive-plan pairs with an identical job set,
  with an identical peel order on the common jobs, and the share of the
  peel order the two plans have in common from the top.  Counts only,
  deterministic, no gate: the ceiling on what any exact cross-plan
  reuse of the onion could buy (ROADMAP 3b; ``BENCH_onion.json``
  ``plan_to_plan`` holds the record that deleted the approximate one).

Planner-time *regressions* are caught elsewhere: ``offline-core``
``cold_plan_s`` / ``churn_replan_s`` through the ledger's ``compare.py``
and ``tick_p50_ms`` on ``steady-fleet``.

Results go to ``BENCH_planner.json`` at the repository root (a tracked
file) and ``benchmarks/out/planner.txt``.  Run directly (``python
benchmarks/bench_planner_incremental.py``) or via pytest.
``RUSH_FULL_SCALE=1`` selects the paper-scale job counts.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, FrozenSet, List
from unittest import mock

import numpy as np

from repro import (
    ConstantUtility,
    GaussianEstimator,
    PlannerJob,
    RushPlanner,
    SchedulePlan,
    SigmoidUtility,
    obs,
)
from repro.analysis import format_table
from repro.service.engine import ServiceEngine

from _shared import FULL_SCALE, write_report

ROOT = Path(__file__).resolve().parent.parent

# The ledger's schedule builder and in-process driver, imported read-only.
sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))
from driver import (READ_MIX, SERVICE_WORKLOADS, apply_in_process,  # noqa: E402
                    service_config)
from schedule import SLOT_SECONDS, build_schedule, preload_jobs  # noqa: E402

CAPACITY = 48
THETA, DELTA, TOLERANCE = 0.9, 0.7, 0.05

#: Steady-state snapshot size and round count of the overhead probe.
STEADY_JOBS = 500 if FULL_SCALE else 150
STEADY_ROUNDS = 10

#: Fleet-scale cold sweep: 1k always; 5k and 10k only under
#: RUSH_FULL_SCALE=1.
SCALE_COUNTS = (1000, 5000, 10000) if FULL_SCALE else (1000,)

OBS_OVERHEAD_GATE = 1.10

#: The count gate: a fleet whose layers are capped by the jobs' own
#: utility ceilings must not pay a bisection per layer.
CAPPED_JOBS = 200
CAPPED_PASSES_PER_PEEL_GATE = 1.5

#: Plan-to-plan stability: ledger workloads x seeds, slots per run.
STABILITY_WORKLOADS = ("steady-fleet", "api-mixed")
STABILITY_SEEDS = (3, 5)
STABILITY_SLOTS = 100


def _make_jobs(n: int, seed: int = 0):
    """``n`` planner jobs with sampled Gaussian estimates and utilities."""
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(n):
        de = GaussianEstimator(prior_mean=float(rng.uniform(30, 90)),
                               prior_std=float(rng.uniform(5, 25)))
        de.observe_many(rng.normal(60, 15, size=10).clip(min=1.0))
        pending = int(rng.integers(10, 120))
        jobs.append(PlannerJob(
            f"wc-{k:04d}",
            SigmoidUtility(budget=float(rng.uniform(100, 2000)),
                           priority=float(rng.integers(1, 6)),
                           beta=float(rng.uniform(0.01, 1.0))),
            de.estimate(pending_tasks=pending)))
    return jobs


def _make_capped_fleet(n: int, seed: int = 9):
    """``n`` jobs in the shape of the ledger's ``batch`` profile.

    A hundred-odd tasks of ten-odd slots each, budgets 150-400x the
    whole-cluster runtime, priorities 1-5, 20/60/20 critical / sensitive
    / insensitive: the fleet fits its capacity, so outside the top
    priority class every layer is capped by a job's own ceiling.
    """
    rng = np.random.default_rng(seed)
    jobs = []
    for k in range(n):
        tasks = int(rng.integers(80, 161))
        runtime = float(np.clip(rng.lognormal(2.5, 0.3), 4.0, 40.0))
        budget = float(rng.uniform(150, 400)) * tasks * runtime / CAPACITY
        priority = float(rng.integers(1, 6))
        sensitivity = rng.choice(["critical", "sensitive", "insensitive"],
                                 p=[0.2, 0.6, 0.2])
        utility = (ConstantUtility(priority) if sensitivity == "insensitive"
                   else SigmoidUtility(
                       budget=budget, priority=priority,
                       beta=0.5 if sensitivity == "critical" else 0.02))
        de = GaussianEstimator(prior_mean=runtime, prior_std=0.25 * runtime)
        jobs.append(PlannerJob(f"b-{k:04d}", utility,
                               de.estimate(pending_tasks=tasks)))
    return jobs


def plans_equal(a: SchedulePlan, b: SchedulePlan) -> bool:
    """Bit-identical planning outcome: etas, targets, next-slot grants."""
    if set(a.jobs) != set(b.jobs):
        return False
    for job_id, pa in a.jobs.items():
        pb = b.jobs[job_id]
        if (pa.robust_demand, pa.reference_demand, pa.target_completion,
                pa.planned_completion, pa.predicted_utility) != \
           (pb.robust_demand, pb.reference_demand, pb.target_completion,
                pb.planned_completion, pb.predicted_utility):
            return False
    return a.next_slot_allocation() == b.next_slot_allocation()


def _time(fn, rounds: int = 3) -> float:
    """Median wall-clock seconds of ``fn()`` over ``rounds`` runs."""
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _planner(**options: int) -> RushPlanner:
    return RushPlanner(capacity=CAPACITY, theta=THETA, delta=DELTA,
                       tolerance=TOLERANCE, **options)


def bench_obs_overhead() -> Dict:
    """Steady-state replanning, observability enabled vs the null default."""
    jobs = _make_jobs(STEADY_JOBS, seed=2)

    def steady_seconds() -> float:
        planner = _planner()
        planner.plan(jobs)                  # fill the WCDE cache
        start = time.perf_counter()
        for _ in range(STEADY_ROUNDS):
            planner.plan(jobs)
        return time.perf_counter() - start

    disabled = statistics.median(steady_seconds() for _ in range(5))
    obs.enable(trace=True, metrics=True, ledger=True)
    try:
        enabled = statistics.median(steady_seconds() for _ in range(5))
        spans = len(obs.get_tracer().spans)
        metric_names = len(obs.get_metrics().snapshot())
    finally:
        obs.reset()

    return {
        "jobs": STEADY_JOBS,
        "rounds": STEADY_ROUNDS,
        "disabled_seconds": disabled,
        "enabled_seconds": enabled,
        "overhead_ratio": enabled / disabled,
        "spans_recorded": spans,
        "metrics_registered": metric_names,
    }


def bench_scale_sweep() -> Dict:
    """Cold planning at 1k/5k/10k jobs, absolute seconds."""
    rows = []
    for n in SCALE_COUNTS:
        jobs = _make_jobs(n, seed=5)
        # One timing rep above 1k: a 10k cold solve is tens of seconds
        # and the medians stopped moving.
        cold_s = _time(lambda: _planner().plan(jobs),
                       rounds=3 if n <= 1000 else 1)

        cold_plan = _planner(wcde_cache_size=0).plan(jobs)
        session = _planner()
        first_plan = session.plan(jobs)
        replan = session.plan(jobs)         # unchanged snapshot, all hits
        rows.append({
            "jobs": n, "cold_seconds": cold_s,
            "plans_bit_identical": (plans_equal(first_plan, cold_plan)
                                    and plans_equal(replan, cold_plan))})
    return {"counts": list(SCALE_COUNTS), "sweep": rows}


def bench_certificates() -> Dict:
    """Evaluated vs certified probes of one ceiling-capped cold plan."""
    stats = _planner().plan(_make_capped_fleet(CAPPED_JOBS)).stats
    return {"jobs": CAPPED_JOBS, "peels": stats.peels,
            "feasibility_checks": stats.feasibility_checks,
            "certified_probes": stats.certified_probes}


def _peel_sequence(plan: SchedulePlan) -> List[FrozenSet[str]]:
    """Peel order, one entry per layer (the closing batch peel is one set)."""
    by_layer: Dict[int, set] = {}
    for job_id, job in plan.jobs.items():
        if job.layer >= 1:                  # layer 0: nothing left to run
            by_layer.setdefault(job.layer, set()).add(job_id)
    return [frozenset(by_layer[layer]) for layer in sorted(by_layer)]


def _service_plans(workload: str, seed: int) -> List[SchedulePlan]:
    """Every plan the daemon's scheduler solves over one write schedule."""
    spec = SERVICE_WORKLOADS[workload]
    entries = build_schedule(
        seed=seed, seconds=STABILITY_SLOTS * SLOT_SECONDS,
        capacity=spec["capacity"], submit_rate=spec["submit_rate"],
        cancel_rate=spec["cancel_rate"], read_rate=0.0, read_mix=READ_MIX)
    plans: List[SchedulePlan] = []
    solve = RushPlanner.plan

    def recording(self, *args, **kwargs):
        plans.append(solve(self, *args, **kwargs))
        return plans[-1]

    with mock.patch.object(RushPlanner, "plan", recording):
        engine = ServiceEngine(service_config(spec["capacity"]))
        for body in preload_jobs(seed, spec["preload"], spec["capacity"]):
            engine.submit(body)
        apply_in_process(engine, entries, STABILITY_SLOTS)
        engine.close()
    return plans


def _shared_prefix(before: List[FrozenSet[str]],
                   after: List[FrozenSet[str]]) -> int:
    """Leading layers that peel the same job(s) in both plans."""
    for depth, (a, b) in enumerate(zip(before, after)):
        if a != b:
            return depth
    return min(len(before), len(after))


def bench_plan_stability() -> Dict:
    """What consecutive plans of a served fleet have in common."""
    rows = []
    for workload in STABILITY_WORKLOADS:
        for seed in STABILITY_SEEDS:
            plans = _service_plans(workload, seed)
            peels = [_peel_sequence(plan) for plan in plans]
            same_jobs = same_order = 0
            shares = []
            for k in range(1, len(plans)):
                prev, cur = plans[k - 1].jobs.keys(), plans[k].jobs.keys()
                common = prev & cur
                same_jobs += prev == cur
                same_order += ([e & common for e in peels[k - 1] if e & common]
                               == [e & common for e in peels[k] if e & common])
                shares.append(_shared_prefix(peels[k - 1], peels[k])
                              / len(peels[k]) if peels[k] else 1.0)
            count = len(plans)
            rows.append({
                "workload": workload, "seed": seed, "plans": count,
                "pairs": count - 1,
                "peels_per_plan": sum(p.stats.peels for p in plans) / count,
                "passes_per_plan":
                    sum(p.stats.feasibility_checks for p in plans) / count,
                "certified_per_plan":
                    sum(p.stats.certified_probes for p in plans) / count,
                "same_job_set": same_jobs,
                "same_peel_order_on_common_jobs": same_order,
                "shared_prefix_share_median": statistics.median(shares),
                "shared_prefix_share_mean": statistics.fmean(shares)})
    return {"slots": STABILITY_SLOTS, "runs": rows}


def run_all() -> Dict:
    overhead = bench_obs_overhead()
    scale = bench_scale_sweep()
    certificates = bench_certificates()
    stability = bench_plan_stability()
    payload = {
        "benchmark": "planner_incremental",
        "full_scale": FULL_SCALE,
        "capacity": CAPACITY,
        "theta": THETA,
        "delta": DELTA,
        "tolerance": TOLERANCE,
        "gates": {"obs_max_overhead_ratio": OBS_OVERHEAD_GATE,
                  "capped_max_passes_per_peel": CAPPED_PASSES_PER_PEEL_GATE},
        "obs_overhead": overhead,
        "scale_sweep": scale,
        "certificates": certificates,
        "plan_stability": stability,
    }

    scale_table = format_table(
        ["scale sweep", "cold s", "bit-identical"],
        [["%d jobs" % r["jobs"], r["cold_seconds"],
          "yes" if r["plans_bit_identical"] else "NO"]
         for r in scale["sweep"]], digits=3)
    stability_table = format_table(
        ["plan to plan", "pairs", "same job set", "same peel order",
         "shared prefix median", "mean"],
        [["%s seed %d" % (r["workload"], r["seed"]), r["pairs"],
          r["same_job_set"], r["same_peel_order_on_common_jobs"],
          r["shared_prefix_share_median"], r["shared_prefix_share_mean"]]
         for r in stability["runs"]], digits=3)
    obs_line = ("Observability overhead (trace+metrics on steady state): "
                "%.3fs -> %.3fs, ratio %.3fx (%d spans, %d metrics)."
                % (overhead["disabled_seconds"], overhead["enabled_seconds"],
                   overhead["overhead_ratio"], overhead["spans_recorded"],
                   overhead["metrics_registered"]))
    capped_line = ("Ceiling-capped fleet (%d jobs): %d peel(s), %d pass(es) "
                   "evaluated, %d probe(s) certified."
                   % (certificates["jobs"], certificates["peels"],
                      certificates["feasibility_checks"],
                      certificates["certified_probes"]))
    report = ("Planning engine, self-relative\n\n" + scale_table
              + "\n\nGates: obs overhead <= %.2fx; uncached cold plan, one "
              "planner's first plan and its unchanged replan bit-identical "
              "at every scale; passes "
              "<= %.1f x peels on the ceiling-capped fleet.\n"
              % (OBS_OVERHEAD_GATE, CAPPED_PASSES_PER_PEEL_GATE)
              + obs_line + "\n" + capped_line
              + "\n\nConsecutive plans of a served fleet (%d slots, no "
              "gate)\n\n" % stability["slots"] + stability_table)
    print("\n" + report)
    write_report("planner.txt", report)
    (ROOT / "BENCH_planner.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return payload


def test_incremental_planner_benchmark_gates():
    payload = run_all()
    assert (payload["obs_overhead"]["overhead_ratio"]
            <= OBS_OVERHEAD_GATE), (
        "observability overhead %.3fx above the %.2fx gate"
        % (payload["obs_overhead"]["overhead_ratio"], OBS_OVERHEAD_GATE))
    assert all(r["plans_bit_identical"]
               for r in payload["scale_sweep"]["sweep"]), (
        "cold / first / replan divergence in the scale sweep")
    certificates = payload["certificates"]
    assert (certificates["feasibility_checks"]
            <= CAPPED_PASSES_PER_PEEL_GATE * certificates["peels"]), (
        "%d staircase passes for %d peels on the ceiling-capped fleet: "
        "the feasibility certificates stopped answering"
        % (certificates["feasibility_checks"], certificates["peels"]))


if __name__ == "__main__":
    test_incremental_planner_benchmark_gates()
