"""RUSH: a RobUst ScHeduler for uncertain completion-times in shared clouds.

A faithful, laptop-scale reproduction of *RUSH: A RobUst ScHeduler to
Manage Uncertain Completion-Times in Shared Clouds* (ICDCS 2016).  The
package provides:

* :mod:`repro.core` — the paper's algorithms: the closed-form REM solver
  (Algorithm 1), the WCDE bisection (Algorithm 2), onion peeling
  (Algorithm 3), continuous time-slot mapping (Algorithm 4) and the
  end-to-end :class:`~repro.core.planner.RushPlanner` (the §III-B LP
  baseline is a test oracle in ``tests/tas_lp.py``);
* :mod:`repro.utility` — the job utility classes (piece-wise linear,
  sigmoid, constant and extensions) with the configuration/XML interface;
* :mod:`repro.estimation` — the distribution-estimator units (mean
  impulse, Gaussian, empirical) and the PMF toolkit;
* :mod:`repro.cluster` — a slotted YARN-like cluster simulator with
  homogeneous containers and the scheduling-event feedback cycle;
* :mod:`repro.schedulers` — RUSH plus the FIFO, EDF, RRH and Fair
  baselines;
* :mod:`repro.workload` — PUMA-like templates, the Section V-B workload
  generator and a trace format;
* :mod:`repro.analysis` — boxplot/CDF statistics, text rendering for
  regenerating the paper's figures, and fault-intensity chaos sweeps;
* :mod:`repro.faults` — composable, seeded fault injectors (crashes,
  stragglers, kills, corrupted samples, solver starvation) with JSON
  specs and a monotone intensity knob;
* :mod:`repro.obs` — deterministic, slot-indexed observability: solver
  span tracing, a counters/gauges/histograms registry with Prometheus
  text export, and a predicted-vs-actual completion-time ledger scored
  by :func:`repro.analysis.calibration.calibration_report`.

Quickstart::

    from repro import (GaussianEstimator, PlannerJob, RushPlanner,
                       SigmoidUtility)

    de = GaussianEstimator(prior_mean=60, prior_std=20)
    de.observe_many([55, 62, 71, 58])
    job = PlannerJob("analytics", SigmoidUtility(budget=600, priority=5),
                     de.estimate(pending_tasks=40))
    plan = RushPlanner(capacity=48, theta=0.9, delta=0.7).plan([job])
    print(plan.jobs["analytics"].target_completion)
"""

from repro.errors import (
    ConfigurationError,
    DistributionError,
    EstimationError,
    InfeasiblePlanError,
    ReproError,
    SimulationError,
    SolverBudgetError,
)
from repro.core import (
    ContainerPlan,
    IncrementalPlanner,
    JobPlan,
    MappingJob,
    OnionJob,
    OnionResult,
    PlannerJob,
    PlanStats,
    RushPlanner,
    SchedulePlan,
    WcdeCache,
    WcdeResult,
    map_time_slots,
    solve_onion,
    solve_rem,
    solve_wcde,
    solve_wcde_batch,
    worst_case_demand,
)
from repro import obs
from repro.analysis.calibration import CalibrationReport, calibration_report
from repro.analysis.chaos import ChaosPoint, ChaosReport, chaos_sweep
from repro.analysis.experiment import Experiment, ExperimentResults
from repro.core.degradation import DegradationOutcome, DegradationPolicy
from repro.obs import CompletionLedger, MetricsRegistry, SpanTracer
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultLog,
    FaultPlan,
    default_chaos_plan,
    load_fault_plan,
)
from repro.estimation import (
    DemandEstimate,
    DistributionEstimator,
    EmpiricalEstimator,
    FailureAwareEstimator,
    GaussianEstimator,
    MeanTimeEstimator,
    Pmf,
    kl_divergence,
)
from repro.cluster import (
    ClusterSimulator,
    JobRecord,
    JobSpec,
    SimulationResult,
    run_simulation,
)
from repro.schedulers import (
    CapacityScheduler,
    EdfScheduler,
    FairScheduler,
    FifoScheduler,
    RrhScheduler,
    RushScheduler,
    Scheduler,
)
from repro.ui import (render_cluster_text, render_profile_text,
                      render_status_html, render_status_text)
from repro.utility import (
    ConstantUtility,
    LinearUtility,
    PiecewiseUtility,
    SigmoidUtility,
    StepUtility,
    UtilityFunction,
    utility_from_config,
    utility_from_xml,
)
from repro.workload import (
    PUMA_TEMPLATES,
    JobTemplate,
    WorkloadConfig,
    WorkloadGenerator,
    generate_workload,
    load_trace,
    save_trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "ConfigurationError",
    "DistributionError",
    "EstimationError",
    "InfeasiblePlanError",
    "SimulationError",
    "SolverBudgetError",
    # core
    "solve_rem",
    "solve_wcde",
    "solve_wcde_batch",
    "worst_case_demand",
    "WcdeCache",
    "WcdeResult",
    "OnionJob",
    "OnionResult",
    "solve_onion",
    "MappingJob",
    "ContainerPlan",
    "map_time_slots",
    "PlannerJob",
    "JobPlan",
    "PlanStats",
    "SchedulePlan",
    "RushPlanner",
    "IncrementalPlanner",
    "DegradationPolicy",
    "DegradationOutcome",
    # estimation
    "Pmf",
    "kl_divergence",
    "DemandEstimate",
    "DistributionEstimator",
    "MeanTimeEstimator",
    "GaussianEstimator",
    "EmpiricalEstimator",
    "FailureAwareEstimator",
    # utility
    "UtilityFunction",
    "LinearUtility",
    "SigmoidUtility",
    "ConstantUtility",
    "StepUtility",
    "PiecewiseUtility",
    "utility_from_config",
    "utility_from_xml",
    # cluster
    "JobSpec",
    "ClusterSimulator",
    "run_simulation",
    "JobRecord",
    "SimulationResult",
    # schedulers
    "Scheduler",
    "RushScheduler",
    "FifoScheduler",
    "EdfScheduler",
    "RrhScheduler",
    "FairScheduler",
    "CapacityScheduler",
    # faults
    "FaultInjector",
    "FaultEvent",
    "FaultLog",
    "FaultPlan",
    "default_chaos_plan",
    "load_fault_plan",
    # observability
    "obs",
    "SpanTracer",
    "MetricsRegistry",
    "CompletionLedger",
    "CalibrationReport",
    "calibration_report",
    # analysis / ui
    "Experiment",
    "ExperimentResults",
    "ChaosPoint",
    "ChaosReport",
    "chaos_sweep",
    "render_status_text",
    "render_status_html",
    "render_cluster_text",
    "render_profile_text",
    # workload
    "JobTemplate",
    "PUMA_TEMPLATES",
    "WorkloadConfig",
    "WorkloadGenerator",
    "generate_workload",
    "save_trace",
    "load_trace",
]
