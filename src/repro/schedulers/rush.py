"""The RUSH scheduler: the CA unit of Section IV on the cluster substrate.

Each job gets a Distribution Estimator unit at arrival; completed-task
runtimes stream into it.  At each scheduling event the scheduler

1. refreshes the demand estimate of every *dirty* active job,
2. invokes the :class:`~repro.core.planner.RushPlanner` (WCDE -> onion
   peeling -> continuous time-slot mapping) once,
3. reads only the *first slot* of the resulting container plan and grants
   each free container in turn to the job with the largest gap between
   its planned and current container count — exactly the CA rule of the
   paper ("selects a job that has the largest difference between the new
   and old assignments").

The full plan is recomputed at the next scheduling event, closing the
feedback cycle that lets RUSH recover from earlier estimation mistakes.

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
from dataclasses import asdict
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro import obs
from repro import state as st
from repro.cluster.job import JobSpec
from repro.core.degradation import check_fault_depth
from repro.core.planner import PlannerJob, PlanStats, RushPlanner, SchedulePlan
from repro.errors import ReproError, SolverBudgetError
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


def _fill(order: list, grants: List[str], free: int) -> List[str]:
    """``grants``, then each job in ``order`` up to its pending count."""
    rest = (job.job_id for job in order
            for _ in range(job.pending_count - grants.count(job.job_id)))
    return grants + list(islice(rest, free - len(grants)))


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
        # Dirty tracking: jobs whose DE inputs changed since their cached
        # estimate was computed.  The cache stores the estimate together
        # with the pending count it was computed for, as a belt-and-braces
        # guard against any pending-set change that slips past the hooks.
        self._dirty: Set[str] = set()
        self._estimates: Dict[str, Tuple[DemandEstimate, int]] = {}
        #: Rounds each fallback rung served (see ``_current_plan``).
        self._fallbacks: Dict[str, int] = {}
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

    def on_task_failed(self, job, task) -> None:
        self._estimators[job.job_id].observe_failure(float(task.executed))
        self._dirty.add(job.job_id)

    def on_job_complete(self, job) -> None:
        self._estimators.pop(job.job_id, None)
        self._estimates.pop(job.job_id, None)
        self._dirty.discard(job.job_id)

    on_job_cancelled = on_job_complete  # same cleanup

    # -- state ---------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The DE units, the dirty set, the counters and the last good
        plan, as JSON values.

        The memos are not written: the WCDE cache and the Gaussian PMF
        memo are content-addressed, and a cached estimate is a pure
        function of its unit's samples and the pending count it was
        made for — so only that count is kept, and :meth:`load_state`
        recomputes the estimate.
        """
        return {
            "estimators": [[job_id, unit.state_dict()]
                           for job_id, unit in self._estimators.items()],
            "dirty": sorted(self._dirty),
            "estimated": [[job_id, pending] for job_id, (_, pending)
                          in self._estimates.items()],
            "fallbacks": [[rung, n] for rung, n in self._fallbacks.items()],
            "forced_failures": self._forced_failures,
            "counters": [self.planner_seconds, self.plans_computed,
                         self.estimates_refreshed, self.estimates_reused],
            "totals": asdict(self._totals),
            "plan": None if self._plan is None else self._plan.state_dict(),
        }

    def load_state(self, state: Dict[str, Any]) -> None:
        jobs = {job.job_id: job for job in self.sim.active_jobs}
        self._estimators = {}
        for item in st.array(state["estimators"]):
            job_id, unit_state = st.row(item, st.string, st.mapping)
            unit = self._estimator_factory(jobs[job_id].spec)
            unit.load_state(unit_state)
            self._estimators[job_id] = unit
        if self._estimators.keys() != jobs.keys():
            raise ValueError(
                "the DE units do not match the active jobs: units for "
                f"{sorted(self._estimators.keys() - jobs.keys())}, none for "
                f"{sorted(jobs.keys() - self._estimators.keys())}")
        self._dirty = {st.string(job_id) for job_id in st.array(state["dirty"])}
        self._estimates = {}
        for item in st.array(state["estimated"]):
            job_id, pending = st.row(item, st.string, st.integer)
            self._estimates[job_id] = (
                self._estimators[job_id].estimate(pending), pending)
        self._fallbacks = {rung: count for rung, count in (
            st.row(item, st.string, st.integer)
            for item in st.array(state["fallbacks"]))}
        forced = st.integer(state["forced_failures"])
        self._forced_failures = forced and check_fault_depth(forced)
        (self.planner_seconds, self.plans_computed, self.estimates_refreshed,
         self.estimates_reused) = st.row(state["counters"], st.number,
                                         st.integer, st.integer, st.integer)
        self._totals = PlanStats.from_state(state["totals"])
        plan = state["plan"]
        self._plan = None if plan is None else SchedulePlan.from_state(
            st.mapping(plan))

    # -- the CA decision rule ----------------------------------------------------

    def allocate(self, free: int) -> Iterable[str]:
        """This event's grants, all read from one fresh plan: exactly the
        per-container rule, since no launch fault changes what it reads."""
        candidates = self._candidates()
        if not candidates:
            return []
        plan = self._current_plan()
        if plan is None:
            # The degradation ladder bottomed out: no usable plan this
            # round.  Stay live with the greedy-EDF floor.
            return _fill(sorted(candidates, key=edf_key), [], free)
        # The CA rule: each grant goes to the job with the largest integer
        # gap below its next-slot share (first in active order on a tie),
        # closing one unit of it, so the grants are every job's k-th unit
        # of gap sorted by (k - gap, position).
        desired = plan.next_slot_allocation()
        short = sorted((k - gap, position, job.job_id)
                       for position, job in enumerate(candidates)
                       for gap in [desired.get(job.job_id, 0) - job.running_count]
                       for k in range(min(gap, job.pending_count)))
        grants = [job_id for _, _, job_id in short[:free]]
        if len(grants) == free:
            return grants
        # No job is below its planned share; stay work-conserving but keep
        # the plan's urgency order — grant by earliest planned completion,
        # NOT by nominal budget (insensitive jobs often carry short budgets
        # yet must wait, which is the whole point of RUSH).  Equal targets
        # (typically horizon-deferred jobs) break toward the job with the
        # most utility left to recover by running sooner.  No key moves
        # within a slot: one sort orders every remaining grant.
        now = self.sim.now
        def fallback(job):
            target = plan.jobs[job.job_id].target_completion \
                if job.job_id in plan.jobs else math.inf
            elapsed = job.elapsed(now)
            recoverable = (job.utility.value(elapsed)
                           - job.utility.value(elapsed + target)
                           if math.isfinite(target) else 0.0)
            return (target, -recoverable) + edf_key(job)
        return _fill(sorted(candidates, key=fallback), grants, free)

    def select_job(self) -> Optional[str]:
        # Unused by the simulator; the ledger's tracer binds it (10(ii)).
        return next(iter(self.allocate(1)), None)

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
            "fallbacks": sum(self._fallbacks.values()),
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

    def inject_solver_fault(self, depth: int = 1) -> None:
        """Arm a forced failure of the next planning round's solve.

        The hook :class:`~repro.faults.injectors.SolverBudgetInjector`
        drives: depth 1 fails the solve, so the last good plan serves;
        2 also drops that plan, landing on greedy EDF.
        """
        self._forced_failures = max(self._forced_failures,
                                    check_fault_depth(depth))

    @property
    def degradation_counts(self) -> Dict[str, int]:
        """Fallback-rung usage counts (exported on SimulationResult)."""
        return dict(self._fallbacks)

    def _current_plan(self) -> Optional[SchedulePlan]:
        now = self.sim.now
        refreshed_before = self.estimates_refreshed
        estimates, dirty = self._estimates, self._dirty
        reuse = self._incremental_enabled
        reused = 0
        planner_jobs = []
        for job in self.sim.active_jobs:
            spec = job.spec
            job_id = spec.job_id
            # The job's DE report, recomputed only when dirty.
            pending = job.pending_count
            cached = estimates.get(job_id)
            if (reuse and cached is not None and job_id not in dirty
                    and cached[1] == pending):
                reused += 1
                estimate = cached[0]
            else:
                estimate = self._estimators[job_id].estimate(pending)
                estimates[job_id] = (estimate, pending)
                dirty.discard(job_id)
                self.estimates_refreshed += 1
            # Running tasks hold containers beyond this slot; fold their
            # expected remaining work into the job's demand so the plan
            # does not treat busy capacity as free.  This drifts with task
            # age every slot, so it stays outside the memoized stage.
            extra = 0
            if job.running_count:
                runtime = estimate.container_runtime
                extra = sum(max(runtime - age, 0.25 * runtime)
                            for age in job.running_task_ages(now))
            planner_jobs.append(PlannerJob(
                job_id, spec.utility, estimate,
                float(max(0, now - spec.arrival)), None, extra))
        self.estimates_reused += reused
        assert self._planner is not None
        forced = self._forced_failures
        self._forced_failures = 0
        plan: Optional[SchedulePlan]
        try:
            if forced:
                raise SolverBudgetError("injected solver fault (primary)")
            plan = self._planner.plan(planner_jobs)
        except ReproError as exc:
            # The fallback ladder (repro.core.degradation): serve the last
            # good plan, or none -- the greedy-EDF floor -- when there is
            # none yet or a depth-2 fault drops it.
            plan = None if forced >= 2 else self._plan
            rung = "greedy_edf" if plan is None else "last_good"
            if plan is not None:
                plan.stats.fallback = rung
            self._fallbacks[rung] = self._fallbacks.get(rung, 0) + 1
            obs.get_tracer().event("degradation.fallback", rung=rung)
            obs.count("rush_degradation_fallbacks_total", 1, rung)
            self.sim.fault_log.record(now, f"degradation:{rung}", "planner",
                                      errors=[f"primary: {exc}"])
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
        return plan
