"""The scenario library: frozen, seeded workload studies (`rush scenarios`).

Each scenario is a *frozen configuration* — name, workload recipe,
capacity, warm-up split — that deterministically expands into a concrete
workload and drives a differential benchmark of RUSH against the
baseline policies.  Three ship (ROADMAP item 2):

``hpc-replay``
    Replay of the bundled anonymized SWF excerpt
    (``repro/workload/data/hpc_excerpt.swf``): real-trace-shaped rigid
    jobs, per-application duration distributions, -1 fields, failed and
    cancelled records.
``web-bursty``
    A bursty web-service tenant: the two-state modulated-Poisson
    (MMPP) arrival process with storms eight times denser than calm
    stretches, short jobs, critical-heavy sensitivity mix.
``mixed-tenancy``
    A batch tenant (long, insensitive-heavy, Poisson arrivals) sharing
    the cluster with a bursty service tenant (short, critical-heavy) —
    the shared-cloud contention story of the paper's introduction.

Every scenario follows the same protocol: sort the workload by arrival,
fit :class:`~repro.estimation.empirical.TraceFittedEstimators` on the
warm-up prefix, replay the held-out suffix under each policy (RUSH runs
with the fitted per-class estimators; baselines are estimator-free), and
score RUSH's completion promises with the calibration ledger.  Two runs
with the same (name, seed, variant) produce byte-identical outcomes —
:meth:`ScenarioOutcome.digest` is the test hook for that.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.calibration import CalibrationReport, calibration_report
from repro.errors import ConfigurationError
from repro.cluster.job import JobSpec
from repro.cluster.metrics import SimulationResult, scrub_nonfinite
from repro.cluster.simulator import run_simulation
from repro.estimation.empirical import TraceFittedEstimators, split_warmup
from repro.obs.ledger import NULL_LEDGER, CompletionLedger
from repro.obs.metrics import MetricsRegistry
from repro.schedulers import POLICIES, RushScheduler, Scheduler
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.swf import SwfMapConfig, load_swf_workload, rebase_arrivals

__all__ = [
    "Scenario",
    "ScenarioOutcome",
    "SCENARIOS",
    "DEFAULT_BASELINES",
    "KNOWN_BASELINES",
    "scenario_by_name",
    "bundled_swf_path",
    "build_scenario_workload",
    "run_scenario",
]

#: Baseline policies every scenario differential includes (greedy EDF is
#: the paper's headline comparison; FIFO anchors the no-intelligence
#: floor).  RUSH itself is always run.
DEFAULT_BASELINES: Tuple[str, ...] = ("edf", "fifo")

#: Baseline names `rush scenarios run --baselines` accepts: every
#: registered policy but RUSH (the subject of the differential) and
#: ``capacity`` (its queues are a tenant layout no scenario defines).
KNOWN_BASELINES: Tuple[str, ...] = tuple(sorted(
    set(POLICIES) - {"rush", "capacity"}))


def bundled_swf_path() -> Path:
    """Path of the bundled anonymized SWF excerpt fixture."""
    return Path(__file__).parent / "data" / "hpc_excerpt.swf"


@dataclass(frozen=True)
class Scenario:
    """One frozen scenario configuration.

    ``fast`` and ``full`` workload knobs are both pinned here so the CI
    smoke variant and the paper-scale variant are the *same* scenario at
    two sizes, not two ad-hoc configs.
    """

    name: str
    description: str
    capacity_fast: int
    capacity_full: int
    warmup_fraction: float = 0.4
    theta: float = 0.9
    delta: float = 0.7
    #: Per-class sample cap handed to TraceFittedEstimators.fit — part of
    #: the frozen config because the thinning granularity affects the
    #: promise sharpness the calibration gate scores.
    fit_seed_samples: int = 128
    max_slots: int = 200_000
    #: "swf" scenarios replay the bundled excerpt; "synthetic" ones draw
    #: from the Section V-B generator with the frozen configs below.
    kind: str = "synthetic"
    swf_fast: Optional[SwfMapConfig] = None
    swf_full: Optional[SwfMapConfig] = None
    synth_fast: Tuple[WorkloadConfig, ...] = ()
    synth_full: Tuple[WorkloadConfig, ...] = ()
    #: Job-id prefixes per synthetic tenant (parallel to the configs).
    tenant_prefixes: Tuple[str, ...] = ()

    def capacity(self, fast: bool) -> int:
        return self.capacity_fast if fast else self.capacity_full


def _service_config(n_jobs: int, capacity: int) -> WorkloadConfig:
    """Short, bursty, critical-heavy web-service jobs."""
    return WorkloadConfig(
        n_jobs=n_jobs, capacity=capacity, mean_interarrival=60.0,
        budget_ratio=2.0, size_gb_range=(0.5, 1.5),
        sensitivity_mix=(0.5, 0.4, 0.1), time_scale=0.25,
        arrival_process="bursty", burst_factor=8.0)


def _batch_config(n_jobs: int, capacity: int) -> WorkloadConfig:
    """Long, insensitive-heavy batch jobs on Poisson arrivals."""
    return WorkloadConfig(
        n_jobs=n_jobs, capacity=capacity, mean_interarrival=300.0,
        budget_ratio=2.5, size_gb_range=(2.0, 6.0),
        sensitivity_mix=(0.1, 0.4, 0.5), time_scale=0.25,
        arrival_process="poisson")


SCENARIOS: Dict[str, Scenario] = {
    "hpc-replay": Scenario(
        name="hpc-replay",
        description="HPC batch replay of the bundled anonymized SWF "
                    "excerpt (rigid jobs, per-application runtimes)",
        kind="swf",
        capacity_fast=8, capacity_full=16,
        swf_fast=SwfMapConfig(capacity=8, slot_seconds=450.0, max_tasks=6,
                              max_jobs=50),
        swf_full=SwfMapConfig(capacity=16, slot_seconds=300.0, max_tasks=8),
    ),
    "web-bursty": Scenario(
        name="web-bursty",
        description="bursty MMPP web-service tenant: arrival storms, "
                    "short critical-heavy jobs",
        capacity_fast=6, capacity_full=12,
        synth_fast=(_service_config(50, 6),),
        synth_full=(_service_config(200, 12),),
        tenant_prefixes=("svc",),
    ),
    "mixed-tenancy": Scenario(
        name="mixed-tenancy",
        description="batch tenant (long, Poisson) sharing the cluster "
                    "with a bursty service tenant (short, critical)",
        capacity_fast=8, capacity_full=16,
        synth_fast=(_batch_config(20, 8), _service_config(30, 8)),
        synth_full=(_batch_config(80, 16), _service_config(120, 16)),
        tenant_prefixes=("batch", "svc"),
        fit_seed_samples=64,
    ),
}


def scenario_by_name(name: str) -> Scenario:
    """Look up a shipped scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {known}") from None


def build_scenario_workload(scenario: Scenario, *, seed: int = 0,
                            fast: bool = True) -> List[JobSpec]:
    """Expand a scenario into its concrete, arrival-sorted workload."""
    if scenario.kind == "swf":
        cfg = scenario.swf_fast if fast else scenario.swf_full
        specs = load_swf_workload(bundled_swf_path(), config=cfg)
    else:
        configs = scenario.synth_fast if fast else scenario.synth_full
        specs = []
        for k, config in enumerate(configs):
            prefix = (scenario.tenant_prefixes[k]
                      if k < len(scenario.tenant_prefixes) else f"t{k}")
            # Distinct, deterministic per-tenant seed streams.
            tenant_seed = seed + 7919 * k
            for spec in WorkloadGenerator(config, seed=tenant_seed).generate():
                specs.append(replace(spec, job_id=f"{prefix}-{spec.job_id}"))
    return sorted(specs, key=lambda s: (s.arrival, s.job_id))


@dataclass
class ScenarioOutcome:
    """Everything one scenario run produced.

    ``results`` maps policy name (``"rush"``, ``"edf"``, ...) to its
    :class:`SimulationResult` over the held-out suffix; ``calibration``
    scores the RUSH run's completion promises; ``fit_summary`` is the
    per-class sample-count/mean/std of the fitted estimators.
    """

    scenario: Scenario
    seed: int
    fast: bool
    warmup_jobs: int
    holdout_jobs: int
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    calibration: Optional[CalibrationReport] = None
    fit_summary: Dict[str, Dict[str, float]] = field(default_factory=dict)
    ingestion_metrics: Dict[str, object] = field(default_factory=dict)

    def mean_utility(self, policy: str) -> float:
        result = self.results[policy]
        if not result.records:
            return 0.0
        return result.total_utility() / len(result.records)

    def utility_margins(self) -> Dict[str, float]:
        """RUSH's mean-utility lead over each baseline (positive = ahead)."""
        rush = self.mean_utility("rush")
        return {policy: rush - self.mean_utility(policy)
                for policy in self.results if policy != "rush"}

    def _canonical(self) -> Dict[str, object]:
        """Digest-stable dump: wall-clock fields are stripped."""
        results = {}
        for policy in sorted(self.results):
            dump = self.results[policy].to_dict()
            dump.pop("planner_seconds", None)  # wall clock, not semantics
            dump.pop("metrics", None)
            results[policy] = dump
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "variant": "fast" if self.fast else "full",
            "warmup_jobs": self.warmup_jobs,
            "holdout_jobs": self.holdout_jobs,
            "fit_summary": self.fit_summary,
            "calibration": (self.calibration.to_dict()
                            if self.calibration is not None else None),
            "results": results,
        }

    def digest(self) -> str:
        """SHA-256 of the canonical outcome (determinism test hook)."""
        blob = json.dumps(scrub_nonfinite(self._canonical()), sort_keys=True,
                          allow_nan=False)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        """JSON artifact: canonical outcome + digest + derived margins."""
        out = scrub_nonfinite(self._canonical())
        assert isinstance(out, dict)
        out["digest"] = self.digest()
        out["utility_margins"] = self.utility_margins()
        out["mean_utilities"] = {policy: self.mean_utility(policy)
                                 for policy in sorted(self.results)}
        out["ingestion_metrics"] = scrub_nonfinite(self.ingestion_metrics)
        return out


def run_scenario(name: str, *, seed: int = 0, fast: bool = True,
                 baselines: Sequence[str] = DEFAULT_BASELINES,
                 max_slots: Optional[int] = None) -> ScenarioOutcome:
    """Run one scenario end-to-end: build, fit, replay, score.

    The run is self-contained observability-wise: it installs its own
    metrics registry (capturing the ``rush_swf_*`` ingestion counters)
    and a fresh completion ledger per policy, then restores whatever
    instruments were active before.
    """
    scenario = scenario_by_name(name)
    for baseline in baselines:
        if baseline not in KNOWN_BASELINES:
            raise ConfigurationError(
                f"unknown baseline policy {baseline!r}; "
                f"known: {', '.join(KNOWN_BASELINES)}")
    previous = obs.install()  # snapshot of the active instruments
    metrics = MetricsRegistry()
    try:
        obs.install(metrics=metrics, ledger=NULL_LEDGER)
        specs = build_scenario_workload(scenario, seed=seed, fast=fast)
        warmup, holdout = split_warmup(specs, scenario.warmup_fraction)
        fitted = TraceFittedEstimators.fit(
            warmup, max_seed_samples=scenario.fit_seed_samples)
        replay = rebase_arrivals(holdout)
        outcome = ScenarioOutcome(
            scenario=scenario, seed=seed, fast=fast,
            warmup_jobs=len(warmup), holdout_jobs=len(replay),
            fit_summary=fitted.summary())
        capacity = scenario.capacity(fast)
        slots = max_slots if max_slots is not None else scenario.max_slots
        policies: Dict[str, Callable[[], Scheduler]] = {
            "rush": lambda: RushScheduler(
                theta=scenario.theta, delta=scenario.delta,
                estimator_factory=fitted.estimator_for)}
        for baseline in baselines:
            policies[baseline] = POLICIES[baseline][0]
        for policy_name in sorted(policies):
            ledger = CompletionLedger()
            obs.install(ledger=ledger)
            result = run_simulation(replay, capacity,
                                    policies[policy_name](),
                                    seed=seed, max_slots=slots)
            obs.install(ledger=NULL_LEDGER)
            outcome.results[policy_name] = result
            if policy_name == "rush":
                outcome.calibration = calibration_report(ledger)
        outcome.ingestion_metrics = {
            key: value for key, value in metrics.snapshot().items()
            if key.startswith("rush_swf_")}
        return outcome
    finally:
        obs.install(tracer=previous.tracer, metrics=previous.metrics,
                    ledger=previous.ledger)
