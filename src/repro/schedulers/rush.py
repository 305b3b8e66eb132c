"""The RUSH scheduler: the CA unit of Section IV on the cluster substrate.

Each job gets a Distribution Estimator unit at arrival; completed-task
runtimes stream into it.  Whenever a container frees, the scheduler

1. refreshes the demand estimate of every *dirty* active job,
2. invokes the :class:`~repro.core.planner.RushPlanner` (WCDE -> onion
   peeling -> continuous time-slot mapping),
3. reads only the *first slot* of the resulting container plan and grants
   the free container to the job with the largest gap between its planned
   and current container count — exactly the CA rule of the paper
   ("selects a job that has the largest difference between the new and old
   assignments").

The full plan is recomputed at the next scheduling event, closing the
feedback cycle that lets RUSH recover from earlier estimation mistakes.
Plans are cached within a (slot, completion-count) epoch so several grants
in the same slot reuse one solve.

Between consecutive events, most jobs observed nothing: no task sample,
no failure, no launch.  Their DE report is bit-identical, so the
scheduler tracks per-job dirtiness — a job is marked dirty by a task
completion, failure or launch (pending set changed) and at arrival — and
re-runs the estimator only for dirty jobs.  Clean jobs reuse the cached
:class:`~repro.estimation.base.DemandEstimate`; their robust demand is
then a hit in the planner's content-addressed WCDE cache, like that of
any job whose distribution did not move.  The expected remaining work of
running tasks (``extra_demand``) drifts every slot and is recomputed on
every plan; it sits outside the memoized stage.

``incremental=False`` re-runs every job's estimator at every event.  It
is kept as the reference the equivalence suites compare against
(``tests/test_determinism_sweep.py``, ``tests/test_chaos_properties.py``:
both modes schedule identically).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Set, Tuple

from repro import obs
from repro.cluster.job import JobSpec
from repro.core.degradation import DegradationPolicy, check_fault_depth
from repro.core.planner import PlannerJob, PlanStats, RushPlanner, SchedulePlan
from repro.errors import SolverBudgetError
from repro.estimation.base import DemandEstimate, DistributionEstimator
from repro.estimation.gaussian import GaussianEstimator
from repro.schedulers.base import Scheduler
from repro.schedulers.edf import edf_key

__all__ = ["RushScheduler"]

EstimatorFactory = Callable[[JobSpec], DistributionEstimator]

#: Per-task runtime prior (slots) for jobs that ship none.
_DEFAULT_PRIOR_RUNTIME = 10.0


def _default_estimator_factory(spec: JobSpec) -> DistributionEstimator:
    """The paper's Gaussian DE class, seeded with the job's runtime prior."""
    prior = spec.prior_runtime
    return GaussianEstimator(
        prior_mean=_DEFAULT_PRIOR_RUNTIME if prior is None else prior,
        min_samples=2)


class RushScheduler(Scheduler):
    """Robust, completion-time-aware container granting.

    Parameters
    ----------
    theta:
        Completion-probability percentile of the robust constraint.
    delta:
        Entropy threshold for the WCDE problem (the paper's experiments
        find values >= 0.7 necessary once enough samples exist).
    tolerance:
        Utility bisection tolerance of the onion peeling.
    estimator_factory:
        Builds one DE unit per job from its :class:`JobSpec` (template,
        priors, budget).  Defaults to the Gaussian estimator seeded with
        the spec's ``prior_runtime``; trace-fitted per-class estimators
        plug in as
        :meth:`~repro.estimation.empirical.TraceFittedEstimators.estimator_for`.
    incremental:
        Track per-job dirtiness and reuse clean jobs' estimates (default).
        Off, every event re-runs every estimator — the reference path of
        the equivalence suites.
    """

    name = "RUSH"
    has_solver = True

    def __init__(self, *, theta: float = 0.9, delta: float = 0.7,
                 tolerance: float = 0.05,
                 estimator_factory: EstimatorFactory = _default_estimator_factory,
                 incremental: bool = True) -> None:
        super().__init__()
        self._theta = theta
        self._delta = delta
        self._tolerance = tolerance
        self._estimator_factory = estimator_factory
        self._incremental_enabled = incremental
        self._estimators: Dict[str, DistributionEstimator] = {}
        self._planner: Optional[RushPlanner] = None
        self._plan: Optional[SchedulePlan] = None
        self._plan_epoch: Optional[tuple] = None
        self._completions = 0
        # Dirty tracking: jobs whose DE inputs changed since their cached
        # estimate was computed.  The cache stores the estimate together
        # with the pending count it was computed for, as a belt-and-braces
        # guard against any pending-set change that slips past the hooks.
        self._dirty: Set[str] = set()
        self._estimates: Dict[str, Tuple[DemandEstimate, int]] = {}
        #: The fallback ladder (primary solve -> last-good plan -> greedy
        #: EDF) that absorbs a failed planning round.
        self.degradation = DegradationPolicy()
        self._forced_failures = 0
        self.planner_seconds = 0.0
        self.plans_computed = 0
        self.estimates_refreshed = 0
        self.estimates_reused = 0
        #: The ``stats`` of every fresh plan, summed.
        self._totals = PlanStats()

    # -- lifecycle hooks -------------------------------------------------------

    def bind(self, sim) -> None:
        super().bind(sim)
        self._planner = RushPlanner(sim.capacity, theta=self._theta,
                                    delta=self._delta, tolerance=self._tolerance)

    def on_job_arrival(self, job) -> None:
        self._estimators[job.job_id] = self._estimator_factory(job.spec)
        self._dirty.add(job.job_id)

    def on_task_launched(self, job, task) -> None:
        # The pending set shrank, so the remaining-demand estimate changed.
        self._dirty.add(job.job_id)

    def on_task_complete(self, job, task) -> None:
        # ``runtime_sample`` is the observable runtime — ground truth
        # unless a fault injector corrupted the observation.
        self._estimators[job.job_id].observe(float(task.runtime_sample))
        self._dirty.add(job.job_id)
        self._completions += 1

    def on_task_failed(self, job, task) -> None:
        self._estimators[job.job_id].observe_failure(float(task.executed))
        self._dirty.add(job.job_id)
        self._completions += 1  # any task event invalidates the plan epoch

    def on_job_complete(self, job) -> None:
        self._estimators.pop(job.job_id, None)
        self._estimates.pop(job.job_id, None)
        self._dirty.discard(job.job_id)

    def on_job_cancelled(self, job) -> None:
        # Same cleanup as completion, plus an epoch bump: the active set
        # changed mid-slot, so any cached plan mentioning the job is stale.
        self.on_job_complete(job)
        self._plan_epoch = None

    # -- the CA decision rule ----------------------------------------------------

    def select_job(self) -> Optional[str]:
        candidates = self._candidates()
        if not candidates:
            return None
        plan = self._current_plan()
        if plan is None:
            # The degradation ladder bottomed out: no usable plan this
            # round.  Stay live with the greedy-EDF floor.
            return min(candidates, key=edf_key).job_id
        desired = plan.next_slot_allocation()
        best_id: Optional[str] = None
        best_gap = 0.0
        for job in candidates:
            gap = desired.get(job.job_id, 0) - job.running_count
            if gap > best_gap + 1e-12:
                best_gap = gap
                best_id = job.job_id
        if best_id is not None:
            return best_id
        # No job is below its planned share; stay work-conserving but keep
        # the plan's urgency order — grant by earliest planned completion,
        # NOT by nominal budget (insensitive jobs often carry short budgets
        # yet must wait, which is the whole point of RUSH).  Equal targets
        # (typically horizon-deferred jobs) break toward the job with the
        # most utility left to recover by running sooner.
        now = self.sim.now
        def fallback(job):
            target = plan.jobs[job.job_id].target_completion \
                if job.job_id in plan.jobs else math.inf
            elapsed = job.elapsed(now)
            recoverable = (job.utility.value(elapsed)
                           - job.utility.value(elapsed + target)
                           if math.isfinite(target) else 0.0)
            deadline = job.spec.deadline
            return (target, -recoverable,
                    deadline if math.isfinite(deadline) else math.inf,
                    job.arrival, job.job_id)
        return min(candidates, key=fallback).job_id

    # -- planning ------------------------------------------------------------------

    @property
    def last_plan(self) -> Optional[SchedulePlan]:
        """The most recent schedule plan (None before the first event)."""
        return self._plan

    def impossible_jobs(self) -> list:
        """Jobs the latest plan marks as unable to attain positive utility.

        This backs the "red rows" of the paper's enhanced HTTP interface.
        """
        if self._plan is None:
            return []
        return self._plan.impossible_jobs()

    def profile(self) -> Dict[str, float]:
        """Aggregated planner-cost counters for this scheduler's lifetime.

        Returned keys: ``plans_computed``, ``planner_seconds``, per-stage
        seconds (``wcde_seconds``/``onion_seconds``/``mapping_seconds``),
        ``estimates_refreshed``/``estimates_reused`` (dirty tracking),
        ``wcde_cache_hits``/``wcde_cache_misses``/``wcde_cache_hit_rate``
        (content-addressed memo), plus total onion ``peels``,
        ``feasibility_checks`` (passes evaluated) and ``certified_probes``
        (probes answered without a pass) and the degradation-ladder
        ``fallbacks`` total.  Rendered by ``rush simulate --profile`` and
        :func:`repro.ui.status.render_profile_text`.
        """
        cache = self._planner.wcde_cache if self._planner is not None else None
        totals = self._totals
        hits = cache.hits if cache is not None else 0
        misses = cache.misses if cache is not None else 0
        return {
            "fallbacks": self.degradation.total_fallbacks,
            "plans_computed": self.plans_computed,
            "planner_seconds": self.planner_seconds,
            "wcde_seconds": totals.wcde_seconds,
            "onion_seconds": totals.onion_seconds,
            "mapping_seconds": totals.mapping_seconds,
            "estimates_refreshed": self.estimates_refreshed,
            "estimates_reused": self.estimates_reused,
            "wcde_cache_hits": hits,
            "wcde_cache_misses": misses,
            "wcde_cache_hit_rate": (hits / (hits + misses)
                                    if hits + misses else 0.0),
            "peels": totals.peels,
            "feasibility_checks": totals.feasibility_checks,
            "certified_probes": totals.certified_probes,
        }

    def _job_estimate(self, job) -> DemandEstimate:
        """The job's current DE report, recomputed only when dirty."""
        pending = job.pending_count
        cached = self._estimates.get(job.job_id)
        if (self._incremental_enabled and cached is not None
                and job.job_id not in self._dirty and cached[1] == pending):
            self.estimates_reused += 1
            return cached[0]
        estimate = self._estimators[job.job_id].estimate(pending)
        self._estimates[job.job_id] = (estimate, pending)
        self._dirty.discard(job.job_id)
        self.estimates_refreshed += 1
        return estimate

    def inject_solver_fault(self, depth: int = 1) -> None:
        """Arm a forced failure of the next planning round's solve.

        The hook :class:`~repro.faults.injectors.SolverBudgetInjector`
        drives: depth 1 fails the solve, so the last good plan serves;
        2 also drops that plan, landing on greedy EDF.
        """
        self._forced_failures = max(self._forced_failures,
                                    check_fault_depth(depth))
        self._plan_epoch = None  # the armed fault must hit a fresh solve

    @property
    def degradation_counts(self) -> Dict[str, int]:
        """Fallback-rung usage counts (exported on SimulationResult)."""
        return dict(self.degradation.counts)

    def _current_plan(self) -> Optional[SchedulePlan]:
        epoch = (self.sim.now, self._completions, len(self.sim.active_jobs))
        if self._plan_epoch == epoch:
            return self._plan  # may be None: greedy-EDF mode for this epoch
        now = self.sim.now
        refreshed_before = self.estimates_refreshed
        planner_jobs = []
        for job in self.sim.active_jobs:
            estimate = self._job_estimate(job)
            # Running tasks hold containers beyond this slot; fold their
            # expected remaining work into the job's demand so the plan
            # does not treat busy capacity as free.  This drifts with task
            # age every slot, so it stays outside the memoized stage.
            runtime = estimate.container_runtime
            extra = sum(max(runtime - age, 0.25 * runtime)
                        for age in job.running_task_ages(now))
            planner_jobs.append(PlannerJob(
                job_id=job.job_id, utility=job.utility,
                estimate=estimate, elapsed=float(job.elapsed(now)),
                extra_demand=extra))
        assert self._planner is not None
        forced = self._forced_failures
        self._forced_failures = 0

        def primary() -> SchedulePlan:
            if forced:
                raise SolverBudgetError("injected solver fault (primary)")
            return self._planner.plan(planner_jobs)

        last_good = None if forced >= 2 else self._plan
        outcome = self.degradation.execute(primary, last_good)
        plan = outcome.plan
        if outcome.degraded:
            self.sim.fault_log.record(
                now, f"degradation:{outcome.rung}", "planner",
                errors=list(outcome.errors))
        else:
            # Only a *fresh* plan is recorded: a reused ``last_good`` one
            # made no new promises and refreshed no estimates.
            self.planner_seconds += plan.solve_seconds
            self.plans_computed += 1
            self._totals.add(plan.stats)
            obs.observe("rush_sched_dirty_jobs",
                        self.estimates_refreshed - refreshed_before)
            ledger = obs.get_ledger()
            if ledger.active:
                for job_id, job_plan in plan.jobs.items():
                    ledger.predict(job_id, now,
                                   now + job_plan.planned_completion,
                                   self._theta)
        self._plan = plan
        self._plan_epoch = epoch
        return plan
