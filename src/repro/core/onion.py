"""Onion peeling — Algorithm 3 of the paper.

Once the WCDE layer has produced a robust demand ``eta_i`` (in
container-time-slots) for every job, the Time-Aware Scheduling problem is
deterministic: choose target completion-times maximizing the *lexicographic
max-min* vector of job utilities, subject to the cluster capacity ``C``.

The onion peeling method maximizes the minimum utility "layer by layer".
Within one layer it bisects on a utility level ``L``: a level is feasible
iff every job can finish by its utility deadline ``U_i^{-1}(L)``, which by
Theorem 2 reduces to the staircase capacity test (12)::

    sum_{i in N_k} eta_i + G(d_k)  <=  C * d_k        for every k,

where ``d_1 <= d_2 <= ...`` are the sorted deadlines, ``N_k`` the first
``k`` jobs and ``G(t)`` the demand already committed to previously peeled
jobs finishing by ``t``.  The job owning the first violated constraint at
the last infeasible level is the layer's *bottleneck*: its utility cannot
be improved further, so it is peeled (its completion-time frozen, its
demand folded into ``G``) and the search continues with the rest.

Deadlines are measured in slots from "now".  Re-planning an in-flight job
is supported through ``elapsed`` (slots since submission: utilities are
functions of total completion-time) and Theorem 3's continuity slack is
supported through ``compensation`` (the per-job budget reduction ``R_i``
that makes the continuous-time-slot mapping achievable).

A probe whose answer is already known is not evaluated: three exact
certificates (:func:`_certify`) sit in front of the staircase pass — a
level above some active job's own utility ceiling is infeasible, a
level verified with slack to spare stays feasible across the peels made
at it, and the bottleneck probe at the level the bisection has just
found infeasible re-reads that pass instead of repeating it.
``OnionResult.feasibility_checks`` counts the passes evaluated,
``certified_probes`` the rest.  A pass whose earliest active job cannot
fit even alone fails there, before it sorts or sums anything
(:func:`_first_point_failure`).  A layer that evaluates no pass and ends
at its starting seed is a fixed point: the layers after it ask the same
probes until a peel moves the highest or the lowest active ceiling,
so that run of tied layers is peeled in one step
(:func:`_tied_run`), its probes asked of :func:`_certify` once.

When the first layer bottoms out at the utility floor, some jobs must
end there, and *which* ones decides the rest of the vector.  One
Moore–Hodgson pass (:func:`_moore_hodgson`) picks the fewest: at the
deadlines for ``floor + tolerance`` the staircase is a single machine of
speed ``C``, and keeping the most jobs on time there is ``1||sum U_j``.

For speed the deadline evaluation is vectorized across jobs: jobs whose
utility class states a closed-form inverse (``PARAMS`` and ``inverse``,
:mod:`repro.utility.base`) are grouped by class into stacked parameter
arrays and answered by that class's own inverse, while any other class is
asked through its scalar ``deadline_for``; every job then takes the one
ceiling rule.  This keeps a full lexicographic solve for 1000 jobs within
the interactive budget the paper reports for its Java implementation
(Figure 5).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Type, Union

import numpy as np
import numpy.typing as npt

from repro import obs
from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.utility.base import UtilityFunction, apply_ceiling_rule

__all__ = ["OnionJob", "JobTarget", "OnionResult", "solve_onion",
           "default_horizon"]


@dataclass(frozen=True)
class OnionJob:
    """One job as seen by the TAS layer.

    Attributes
    ----------
    job_id:
        Opaque identifier, unique within one solve.
    demand:
        Robust remaining demand ``eta_i`` in container-time-slots.
    utility:
        The job's utility function of *total* completion-time.
    elapsed:
        Slots already spent since submission (0 for a fresh job).  The
        deadline from now for level ``L`` is ``U^{-1}(L) - elapsed``.
    compensation:
        Theorem 3 slack, normally the average container runtime ``R_i``;
        subtracted from every deadline so the continuous mapping's
        ``T_i + R_i`` bound still meets the original deadline.
    """

    job_id: str
    demand: float
    utility: UtilityFunction
    elapsed: float = 0.0
    compensation: float = 0.0

    def __post_init__(self) -> None:
        if self.demand < 0 or not math.isfinite(self.demand):
            raise ConfigurationError(
                f"job {self.job_id!r}: demand must be finite and >= 0, got {self.demand}")
        if self.elapsed < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: elapsed must be >= 0, got {self.elapsed}")
        if self.compensation < 0:
            raise ConfigurationError(
                f"job {self.job_id!r}: compensation must be >= 0, got {self.compensation}")


class OnionColumns(NamedTuple):
    """The jobs of one solve as columns, aligned by position.

    One sequence per field of :class:`OnionJob`.  ``RushPlanner.plan``
    hands these to :func:`solve_onion` instead of building an
    ``OnionJob`` per job, and runs :meth:`check` on them first;
    :func:`solve_onion` converts a list of ``OnionJob`` once with
    :meth:`of`.
    """

    job_ids: Sequence[str]
    demands: Sequence[float]
    utilities: Sequence[UtilityFunction]
    elapsed: Sequence[float]
    compensation: Sequence[float]

    @classmethod
    def of(cls, jobs: Sequence[OnionJob]) -> "OnionColumns":
        """The columns of already validated jobs."""
        return cls([job.job_id for job in jobs], [job.demand for job in jobs],
                   [job.utility for job in jobs],
                   [job.elapsed for job in jobs],
                   [job.compensation for job in jobs])

    def check(self) -> None:
        """Raise what ``OnionJob`` raises for the first invalid job."""
        demands = np.asarray(self.demands, dtype=float)
        bad = ~(np.isfinite(demands) & (demands >= 0))
        bad |= np.asarray(self.elapsed, dtype=float) < 0
        bad |= np.asarray(self.compensation, dtype=float) < 0
        if bad.any():
            i = int(bad.argmax())
            OnionJob(self.job_ids[i], self.demands[i], self.utilities[i],
                     self.elapsed[i], self.compensation[i])


class JobTarget(NamedTuple):
    """The peeled decision for one job.

    ``target_completion`` counts slots from now; the job is expected to be
    done by then under the robust demand.  ``utility_value`` is the utility
    the planner expects at that completion (using total time
    ``elapsed + target_completion``).  ``achievable`` is false for jobs
    whose expected utility is (numerically) zero — the "red rows" of the
    paper's management interface.
    """

    job_id: str
    target_completion: int
    utility_value: float
    layer: int
    achievable: bool


@dataclass(frozen=True)
class OnionResult:
    """Solution of one lexicographic max-min solve."""

    targets: Dict[str, JobTarget]
    layers: int
    #: Staircase passes evaluated.
    feasibility_checks: int
    horizon: int
    #: Probes whose verdict a certificate supplied instead of a pass; with
    #: ``feasibility_checks`` it adds up to the probes the solve asked.
    certified_probes: int = 0

    def utility_vector(self) -> List[float]:
        """Achieved utilities sorted non-decreasingly (the lex-max-min vector)."""
        return sorted(t.utility_value for t in self.targets.values())


def default_horizon(jobs: Union[Sequence[OnionJob], OnionColumns],
                    capacity: int) -> int:
    """A horizon long enough that the bottom utility layer is feasible.

    ``ceil(total_demand / capacity)`` slots suffice to fit all demand, with
    one extra slot of slack for the integer rounding of deadlines.
    """
    total = sum(jobs.demands if isinstance(jobs, OnionColumns)
                else [job.demand for job in jobs])
    return max(1, int(math.ceil(total / max(capacity, 1))) + 1)


class _DeadlineBank:
    """Vectorized ``U_i^{-1}(L)`` across a fixed set of jobs.

    Groups jobs by utility class, stacking each class's ``PARAMS`` so a
    level query costs one call of each class's ``inverse`` rather than
    one Python call per job.  Classes without ``PARAMS``, and subclasses
    that override ``deadline_for``, are asked one job at a time.  Every
    entry equals the job's own ``deadline_for`` bit for bit.
    """

    def __init__(self, jobs: Union[Sequence[OnionJob], OnionColumns],
                 horizon: int,
                 demands: Optional[npt.NDArray[np.float64]] = None,
                 capacity: Optional[float] = None) -> None:
        cols = jobs if isinstance(jobs, OnionColumns) else OnionColumns.of(jobs)
        utilities = cols.utilities
        self._n = len(utilities)
        self._horizon = horizon
        self._demands = demands
        self._capacity = capacity
        self._offsets = np.array([elapsed + compensation for elapsed, compensation
                                  in zip(cols.elapsed, cols.compensation)])
        members: Dict[Type[UtilityFunction], List[int]] = {}
        self._other: List[Tuple[int, UtilityFunction]] = []
        for i, utility in enumerate(utilities):
            cls = type(utility)
            # A subclass that overrides ``deadline_for`` answers through
            # it, not through the ``inverse`` it may inherit.
            if cls.PARAMS and cls.deadline_for is UtilityFunction.deadline_for:
                members.setdefault(cls, []).append(i)
            else:
                self._other.append((i, utility))
        self._groups = [
            (cls, np.array(idx), np.array(
                [[getattr(utilities[i], name) for i in idx]
                 for name in cls.PARAMS], dtype=float))
            for cls, idx in members.items()]
        # Utility ceilings and floors, evaluated once: the ceiling rule
        # reads both at every level, and the layer loop and the tied runs
        # take maxima over (subsets of) the ceilings thousands of times
        # per solve.  A level above ``max_values[i]`` gives job ``i`` the
        # deadline -inf — what certificate (A) predicts.
        self.max_values = np.array([u.max_value() for u in utilities],
                                   dtype=float)
        self.floors = np.array([u.min_value() for u in utilities],
                               dtype=float)
        # Their extremes let a level skip a mask that would change nothing
        # (a NaN extreme skips none).
        self._bounds = (float(self.max_values.min(initial=np.inf)),
                        float(self.floors.max(initial=-np.inf)))
        self._level_memo: Dict[float, npt.NDArray[np.float64]] = {}
        self._view_memo: Dict[float, Tuple[npt.NDArray[np.intp],
                                           npt.NDArray[np.float64],
                                           npt.NDArray[np.float64]]] = {}

    def raw_deadlines(self, level: float) -> npt.NDArray[np.float64]:
        """``U_i^{-1}(level)`` for every job, before elapsed/compensation."""
        d = np.empty(self._n, dtype=float)
        for cls, idx, params in self._groups:
            d[idx] = cls.inverse(params, level)
        for pos, util in self._other:
            d[pos] = util.deadline_for(level)
        apply_ceiling_rule(d, level, self.floors, self.max_values,
                           bounds=self._bounds)
        return d

    def deadlines(self, level: float) -> npt.NDArray[np.float64]:
        """Integer slot deadlines from now, capped at the horizon.

        Entries are ``-inf`` when the level is unreachable for the job.
        Results are memoized per level for the lifetime of the bank: the
        bisection grids of consecutive layers revisit the same levels
        constantly, so most queries of one solve are dict hits.  The
        returned array is read-only.
        """
        cached = self._level_memo.get(level)
        if cached is not None:
            return cached
        d = self.raw_deadlines(level)
        d -= self._offsets
        # Cap, nudge and floor in place: the floor of +-inf is +-inf, so
        # every entry takes the same three ufuncs.
        np.minimum(d, self._horizon, out=d)
        d += 1e-9
        np.floor(d, out=d)
        d.setflags(write=False)
        if len(self._level_memo) >= 1024:
            self._level_memo.clear()
        self._level_memo[level] = d
        return d

    def level_view(self, level: float) -> Tuple[npt.NDArray[np.intp],
                                                npt.NDArray[np.float64],
                                                npt.NDArray[np.float64]]:
        """The whole layer's deadlines at ``level``, pre-sorted once.

        Returns ``(order, deadlines_sorted * capacity, demands_sorted)``
        where ``order`` is the *stable* argsort of :meth:`deadlines` over
        every job in the bank and the two value arrays are aligned with
        it.  Feasibility checks restrict this full-set view to the active
        jobs with one boolean gather — a subsequence of a stably sorted
        array is itself stably sorted, so the restriction reproduces
        exactly the order a per-check stable argsort of the subset would
        produce.  Deadlines come back pre-multiplied by the capacity so
        the staircase's right-hand side ``capacity * d`` costs nothing
        per check; :meth:`deadlines` floors every finite entry to an
        integer, so the scaling is order-preserving and collapses no
        ties (integer-times-capacity products stay exact far beyond any
        realistic horizon).  Memoized per level: the bisection grids of
        consecutive layers revisit levels constantly, so one ``argsort``
        typically serves many checks.
        """
        if self._demands is None or self._capacity is None:
            raise ConfigurationError(
                "level_view needs the bank constructed with demand and "
                "capacity")
        view = self._view_memo.get(level)
        if view is not None:
            return view
        d = self.deadlines(level)
        order = d.argsort(kind="stable")
        dcap = d.take(order)
        dcap *= self._capacity
        view = (order, dcap, self._demands.take(order))
        if len(self._view_memo) >= 1024:
            self._view_memo.clear()
        self._view_memo[level] = view
        return view


class _PeeledLedger:
    """Demand committed to already-peeled jobs, by target completion-time.

    Exposes the peeled ``(T_j, eta_j)`` pairs sorted by time so the
    feasibility test can fold them into the staircase.  Note that the
    capacity condition must be verified at *every* deadline — peeled ones
    included: a peeled job finishing just after an active job's deadline
    still competes for the same early slots.
    """

    def __init__(self, size: int, capacity: float) -> None:
        # One row per array, preallocated for every job of the solve; the
        # public arrays are views of the committed prefix.
        self._rows = np.empty((3, size))
        self._capacity = capacity
        #: The committed pairs as arrays, sorted by time; ``scaled`` is
        #: ``times * capacity``, the staircase's right-hand side.
        self.times: npt.NDArray[np.float64] = self._rows[0, :0]
        self.demands: npt.NDArray[np.float64] = self._rows[1, :0]
        self.scaled: npt.NDArray[np.float64] = self._rows[2, :0]

    def commit(self, completions: npt.NDArray[np.float64],
               demands: npt.NDArray[np.float64]) -> None:
        """Merge pairs in, in the order one-at-a-time inserts would leave.

        Each pair lands after every equal time already committed, and
        pairs of one call that share a time keep their order: exactly a
        stable sort of the committed pairs followed by the new ones.  The
        committed prefix is already sorted, so the sort is a merge.
        """
        n = self.times.size
        times, committed, scaled = self._rows[:, :n + completions.size]
        times[n:] = completions
        committed[n:] = demands
        order = times.argsort(kind="stable")
        times[:] = times[order]
        committed[:] = committed[order]
        np.multiply(times, self._capacity, out=scaled)
        self.times, self.demands, self.scaled = times, committed, scaled


def solve_onion(jobs: Union[Sequence[OnionJob], OnionColumns], capacity: int,
                *,
                tolerance: float = 0.01,
                horizon: Optional[int] = None) -> OnionResult:
    """Lexicographic max-min completion-time assignment (Algorithm 3).

    Parameters
    ----------
    jobs:
        The active jobs with their robust demands, as ``OnionJob`` records
        or as checked :class:`OnionColumns`.
    capacity:
        Cluster capacity ``C`` in containers.
    tolerance:
        Bisection tolerance ``Delta`` on the utility level.
    horizon:
        Scheduling horizon in slots.  Defaults to
        :func:`default_horizon`, which always admits the bottom layer.

    Raises
    ------
    InfeasiblePlanError
        If even the bottom utility layer does not fit the horizon (only
        possible with an explicit, too-short horizon or zero capacity).
    """
    if capacity <= 0:
        raise InfeasiblePlanError(f"cluster capacity must be positive, got {capacity}")
    if not 0.0 < tolerance < math.inf:  # NaN fails too
        raise ConfigurationError(f"tolerance={tolerance} must be finite and > 0")
    cols = jobs if isinstance(jobs, OnionColumns) else OnionColumns.of(jobs)
    ids = cols.job_ids
    if len(set(ids)) != len(ids):
        raise ConfigurationError("job ids must be unique within one solve")
    if horizon is None:
        horizon = default_horizon(cols, capacity)
    if horizon < 1:
        raise ConfigurationError(f"horizon must be >= 1, got {horizon}")

    targets: Dict[str, JobTarget] = {}
    active: List[int] = []
    for i, demand in enumerate(cols.demands):
        if demand <= 0.0:
            # Nothing left to run: the job completes "now" at full utility.
            value = cols.utilities[i].value(cols.elapsed[i])
            targets[ids[i]] = JobTarget(ids[i], 0, value, 0, value > 0.0)
        else:
            active.append(i)

    n_jobs = len(ids)
    demands = np.array(cols.demands, dtype=float)
    bank = _DeadlineBank(cols, horizon, demands, capacity)
    # An unbounded ceiling makes every bisection midpoint infinite and the
    # layer loop endless; refuse it before the first probe.
    for method, bounds in (("max_value", bank.max_values),
                           ("min_value", bank.floors)):
        unbounded = np.flatnonzero(~np.isfinite(bounds))
        if unbounded.size:
            raise ConfigurationError(
                f"job {ids[unbounded[0]]!r}: utility {method}() must "
                f"be finite, got {bounds[unbounded[0]]}")
    global_floor = min(float(bank.floors.min(initial=0.0)), 0.0)
    ledger = _PeeledLedger(n_jobs, capacity)
    checks = 0
    certified = 0
    # Certificate B's state: the level most recently found feasible for
    # the layer's own configuration, with the minimum slack of the pass
    # that found it.  Peeling at that level's deadlines only moves the
    # peeled job later, so the slack survives the peel (see _certify).
    carried: Optional[Tuple[float, float]] = None
    # Certificate C's state: the layer's most recent infeasible pass, as
    # ``(level, named)`` — ``named`` is the bottleneck when the pass
    # stopped at its first active point, else ``(slack, order, sel, act_pos,
    # fro_pos)``, enough to name it again without re-running the pass.
    # Every peel and the sacrifice drop it, so it always describes the
    # current active set and ledger.
    failed: Optional[Tuple[float, Union[int, Tuple[
        npt.NDArray[np.float64], npt.NDArray[np.intp], npt.NDArray[np.bool_],
        Optional[npt.NDArray[np.intp]],
        Optional[npt.NDArray[np.intp]]]]]] = None
    # Twice the rounding error of one staircase evaluation, times a 4x
    # safety factor: at most n + 2 sequential additions and one
    # subtraction on magnitudes bounded by sum(eta) + C * horizon.
    slack_noise = (8.0 * (n_jobs + 2) * 2.0 ** -53
                   * (float(demands.sum()) + float(capacity) * horizon))

    # One-slot identity cache for what a probe needs of its active set —
    # the boolean mask and the lowest level any member cannot reach: every
    # check of one layer's bisection passes the same index-array object,
    # so both are rebuilt only once per layer.  Holding a strong reference
    # to the key array makes the ``is`` test safe against id reuse.
    probed_idx: Optional[npt.NDArray[np.intp]] = None
    probed_mask = np.zeros(0, dtype=bool)
    probed_top = math.inf
    # The current layer's own certified probes, ``(level, verdict)`` in
    # the order asked: the template a run of tied layers replays.
    probe_log: List[Tuple[float, bool]] = []

    # Preallocated scratch for the merge: merged size is at most every
    # job, so one set of buffers serves every check without re-allocating
    # on the hot path.
    d_buf = np.empty(n_jobs)
    e_buf = np.empty(n_jobs)
    s_buf = np.empty(n_jobs)
    comp_buf = np.empty(n_jobs, dtype=bool)
    pos_buf = np.arange(n_jobs)

    def staircase(level: float, active_idx: npt.NDArray[np.intp],
                  need_bottleneck: bool = False) -> Tuple[bool, Optional[int]]:
        """Check the staircase condition (12) at *all* deadlines.

        Active jobs' deadlines come from the utility level; peeled jobs
        contribute their frozen targets.  The condition must hold at
        every merged deadline point: a peeled job finishing just after an
        active one still competes for the same early capacity.

        The whole layer is evaluated in one vectorized pass: the active
        jobs are a boolean-gather restriction of the bank's memoized
        per-level sorted view, merged with the (already sorted) peeled
        ledger by ``searchsorted`` position arithmetic instead of a
        per-check ``argsort``.  The merge reproduces the historical
        concatenation order exactly — on equal deadlines active entries
        precede peeled ones, and both blocks keep their internal order —
        so prefix sums accumulate in the same sequence and every
        feasibility verdict is bit-identical to the scalar path.

        On failure with ``need_bottleneck``, the last active job at or
        before the first violated point — the paper's bottleneck — is
        returned by global index; probe callers leave it false and get
        ``None``, skipping that bookkeeping.  A pass whose first active
        job cannot fit even alone (:func:`_first_point_failure`) stops
        there, before the sorted view, the merge and the prefix sums.

        A probe whose verdict :func:`_certify` already knows returns it
        without the pass, counted in ``certified`` instead of ``checks``.
        """
        nonlocal checks, certified, carried, failed
        nonlocal probed_idx, probed_mask, probed_top
        if probed_idx is not active_idx:
            probed_idx = active_idx
            probed_mask = np.zeros(n_jobs, dtype=bool)
            probed_mask[active_idx] = True
            probed_top = float(bank.max_values[active_idx].min(initial=np.inf))
        failed_at = failed[0] if failed is not None else None
        verdict = _certify(level, probed_top, carried, slack_noise, failed_at)
        if verdict is not None:
            certified += 1
            probe_log.append((level, verdict))
            if verdict or not need_bottleneck:
                return verdict, None
            if failed is not None and level == failed_at:
                named = failed[1]
                return False, (named if isinstance(named, int)
                               else _bottleneck(*named))
            # An unreachable level fails at the very first merged point:
            # -inf deadlines sort first, in index order, ahead of every
            # (finite) peeled time — so the pass would name exactly the
            # first active job whose deadline is -inf.
            unreachable = bank.deadlines(level)[active_idx] == -np.inf
            return False, int(active_idx[int(np.argmax(unreachable))])
        checks += 1
        first = _first_point_failure(bank.deadlines(level), active_idx,
                                     demands, capacity)
        if first is not None:
            failed = (level, first)
            return False, first if need_bottleneck else None
        order, dcap_sorted, eta_sorted = bank.level_view(level)
        sel = probed_mask.take(order)
        d_act = dcap_sorted.compress(sel)
        eta_act = eta_sorted.compress(sel)
        f_times, f_demands = ledger.scaled, ledger.demands
        na, nf = d_act.size, f_times.size
        act_pos = None
        fro_pos = None
        if nf:
            m = na + nf
            comp = comp_buf[:m]
            comp[:] = True
            d_merged = d_buf[:m]
            eta_merged = e_buf[:m]
            # Merge by searching the smaller block into the larger one —
            # the complement positions take the other block via a boolean
            # scatter, so only one searchsorted runs per check.  Sides
            # reproduce the historical tie order exactly: on equal
            # deadlines every active entry precedes every peeled one.
            if na <= nf:
                act_pos = f_times.searchsorted(d_act, side="left")
                act_pos += pos_buf[:na]
                comp[act_pos] = False
                d_merged[act_pos] = d_act
                eta_merged[act_pos] = eta_act
                d_merged[comp] = f_times
                eta_merged[comp] = f_demands
            else:
                fro_pos = d_act.searchsorted(f_times, side="right")
                fro_pos += pos_buf[:nf]
                comp[fro_pos] = False
                d_merged[fro_pos] = f_times
                eta_merged[fro_pos] = f_demands
                d_merged[comp] = d_act
                eta_merged[comp] = eta_act
        else:
            d_merged = d_act
            eta_merged = eta_act
            m = na
        prefix = eta_merged.cumsum()
        slack = np.subtract(d_merged, prefix, out=s_buf[:m])
        # A min-reduce verdict: -inf and NaN slack entries compare False
        # against the tolerance, so unreachable levels stay infeasible.
        margin = float(slack.min(initial=np.inf))
        if margin >= -1e-9:
            carried = (level, margin)
            return True, None
        # ``slack`` is scratch the next pass overwrites; the rest is fresh
        # per pass (or the bank's memoized, unwritten view).
        failed = (level, (slack.copy(), order, sel, act_pos, fro_pos))
        if not need_bottleneck:
            return False, None
        return False, _bottleneck(slack, order, sel, act_pos, fro_pos)

    layer = 0
    seed: Optional[float] = None
    tracer = obs.get_tracer()
    # Per-layer records accumulate in a plain list and land on the solve
    # span's payload in one note() at the end: one peel per job makes a
    # per-layer trace *event* a per-job Span allocation on the planner's
    # hot path, which is what the benchmark's obs-overhead gate polices.
    trail: Optional[List[Dict[str, object]]] = [] if tracer.active else None
    with tracer.span("onion.solve", jobs=n_jobs,
                     capacity=capacity,
                     horizon=horizon) as solve_span:
        active_idx = np.array(active, dtype=int)
        while active_idx.size:
            layer += 1
            layer_checks = checks
            layer_seed = seed
            probe_log.clear()
            ceiling = float(bank.max_values[active_idx].max())
            ok = staircase(ceiling, active_idx)[0]
            if ok:
                # Every remaining job attains its ceiling; peel them all.
                # Nothing probes after this, so the ledger is left alone.
                deadlines = bank.deadlines(ceiling)
                for i in active_idx:
                    _peel_one(cols, i, float(deadlines[i]), targets, layer,
                              horizon)
                if trail is not None:
                    trail.append({"layer": layer, "level": ceiling,
                                  "peeled": "batch"})
                break
            high = ceiling
            # Seed the bracket's feasible end from the previous layer: the
            # peel invariant keeps its verified level feasible for the
            # remaining jobs, so one probe replaces the cold floor probe and
            # usually starts the bisection much closer to the fixed point.
            low = None
            if seed is not None and global_floor < seed < high:
                if staircase(seed, active_idx)[0]:
                    low = seed
            if low is None:
                ok = staircase(global_floor, active_idx)[0]
                if not ok:
                    raise InfeasiblePlanError(
                        "even the minimum utility layer does not fit the horizon "
                        f"(horizon={horizon}, capacity={capacity}); "
                        "increase the horizon or drop demand")
                low = global_floor
            while high - low > tolerance:
                mid = 0.5 * (low + high)
                if staircase(mid, active_idx)[0]:
                    low = mid
                else:
                    high = mid
            _, bottleneck = staircase(high, active_idx, need_bottleneck=True)
            if bottleneck is None:  # pragma: no cover - defensive
                bottleneck = int(active_idx[0])
            seed = low

            # The first layer bottoms out at the utility floor: a job
            # sacrificed here escapes the binding constraint entirely (its
            # floor-level deadline is the horizon), so WHICH jobs end at
            # the floor decides what the later layers can reach.  The
            # jobs that end above it must fit at ``floor + tolerance``;
            # one Moore–Hodgson pass keeps the most of them and names the
            # rest.  They are pinned at the horizon in one commit, and the
            # layer runs again on the jobs kept.  Levels only rise from
            # layer to layer, so no later layer starts a floor of its own.
            if layer == 1 and low <= global_floor + tolerance:
                mask = np.zeros(n_jobs, dtype=bool)
                mask[active_idx] = True
                dropped = _moore_hodgson(
                    *bank.level_view(global_floor + tolerance), mask)
                if dropped.size:
                    ledger.commit(
                        np.array([_peel_one(cols, i, math.inf, targets,
                                            layer, horizon) for i in dropped],
                                 dtype=float),
                        demands.take(dropped))
                    carried = failed = None
                    mask[dropped] = False
                    active_idx = active_idx.compress(mask.take(active_idx))
                    if trail is not None:
                        trail.append({"layer": layer, "low": low,
                                      "high": high, "sacrificed": [
                                          ids[i] for i in dropped]})
                    continue

            deadline = float(bank.deadlines(low)[bottleneck])
            if carried is not None and carried[0] != low:
                # (B) outlives a peel only at the level the peel used.
                carried = None
            # (C) does not: the peel changes the active set and ledger.
            failed = None
            ledger.commit(
                np.array([_peel_one(cols, bottleneck, deadline, targets,
                                    layer, horizon)], dtype=float),
                demands[bottleneck:bottleneck + 1])
            # A fresh array each layer: the probe cache keys on its identity.
            active_idx = active_idx[active_idx != bottleneck]
            if trail is not None:
                trail.append({"layer": layer, "low": low, "high": high,
                              "peeled": ids[bottleneck]})
            if checks > layer_checks or low != layer_seed:
                continue

            # A certified run of tied layers.  This layer evaluated no
            # pass, so ``failed`` stayed None and its bottleneck probe was
            # answered by (A).  Its ``low`` is its starting seed, certified
            # by (B), so ``carried`` survived the peel.  The next layer
            # starts from the same seed and ``carried``; with the same
            # ceiling and the same ``probed_top`` it asks the same probes,
            # gets the same verdicts, lands on the same ``(low, high)`` and
            # peels the first active job whose deadline at ``high`` is
            # -inf — a fixed point, until a peel changes the ceiling or
            # ``probed_top``.  Peel that run in one step.
            run = _tied_run(bank, active_idx, high, probed_top, ceiling)
            # Every layer of the run would ask _certify the same probes
            # with the same state (``failed`` is None after a peel), so
            # they are asked once; a disagreement hands the run back to
            # the ordinary loop.  Each replayed probe still counts.
            if not run.size or any(
                    _certify(level, probed_top, carried, slack_noise, None)
                    is not verdict for level, verdict in probe_log):
                continue
            deadlines = bank.deadlines(low)
            completions = np.empty(run.size)
            for k, i in enumerate(run):
                layer += 1
                completions[k] = _peel_one(cols, i, float(deadlines[i]),
                                           targets, layer, horizon)
                if trail is not None:
                    trail.append({"layer": layer, "low": low, "high": high,
                                  "peeled": ids[i]})
            certified += run.size * len(probe_log)
            ledger.commit(completions, demands.take(run))
            kept = np.ones(n_jobs, dtype=bool)
            kept[run] = False
            active_idx = active_idx.compress(kept.take(active_idx))

        solve_span.note(layers=layer, feasibility_checks=checks)
        if trail is not None:
            solve_span.note(layer_trail=trail)
    obs.count("rush_onion_feasibility_checks_total", checks)
    obs.count("rush_onion_certified_probes_total", certified)
    return OnionResult(targets=targets, layers=layer,
                       feasibility_checks=checks, horizon=horizon,
                       certified_probes=certified)


def _peel_one(cols: OnionColumns, i: int, deadline: float,
              targets: Dict[str, JobTarget], layer: int, horizon: int) -> int:
    """Freeze job ``i``'s target; returns its completion-time."""
    completion = _clamp_completion(deadline, horizon)
    value = cols.utilities[i].value(cols.elapsed[i] + completion)
    job_id = cols.job_ids[i]
    targets[job_id] = JobTarget(job_id, completion, value, layer,
                                value > 1e-9)
    return completion


def _first_point_failure(deadlines: npt.NDArray[np.float64],
                         active_idx: npt.NDArray[np.intp],
                         demands: npt.NDArray[np.float64],
                         capacity: float) -> Optional[int]:
    """The bottleneck of a pass that fails at its first active point.

    The first active point of the merge is the active job with the
    earliest deadline (the lowest index on a tie: ``active_idx`` is
    ascending and the sorted view is stable).  If that job cannot fit
    even alone, ``d * C - eta < -1e-9``, the pass fails whatever
    follows: peeled entries merged before it only add demand to its
    prefix (a sum of non-negative floats rounds to no less than its
    last term), so its slack is no larger.  The first violated point is
    then that one or a peeled one before it, and either way no active
    job precedes it but this one — the job the pass names.  Returns
    ``None`` when the pass must run (a NaN deadline among the active
    jobs included).
    """
    own = deadlines.take(active_idx)
    k = int(own.argmin())
    job = int(active_idx[k])
    return job if own[k] * capacity - demands[job] < -1e-9 else None


def _bottleneck(slack: npt.NDArray[np.float64], order: npt.NDArray[np.intp],
                sel: npt.NDArray[np.bool_],
                act_pos: Optional[npt.NDArray[np.intp]],
                fro_pos: Optional[npt.NDArray[np.intp]]) -> int:
    """The bottleneck an infeasible staircase pass names.

    It is the last active job at or before the pass's first violated
    merged point, by global index.  ``order`` and ``sel`` are the pass's
    sorted view and active-set mask; ``act_pos`` / ``fro_pos`` are its
    merge positions (whichever block it searched; both ``None`` when the
    ledger was empty).
    """
    first = int(np.argmax(~(slack >= -1e-9)))
    if act_pos is not None:
        count = int(act_pos.searchsorted(first, side="right"))
    elif fro_pos is not None:
        count = first + 1 - int(fro_pos.searchsorted(first, side="right"))
    else:
        count = first + 1
    return int(order.compress(sel)[max(count, 1) - 1])


def _moore_hodgson(order: npt.NDArray[np.intp],
                   dcap: npt.NDArray[np.float64],
                   eta: npt.NDArray[np.float64],
                   active: npt.NDArray[np.bool_]) -> npt.NDArray[np.intp]:
    """The fewest active jobs whose removal makes the rest fit (Moore 1968).

    ``(order, dcap, eta)`` is a level's sorted view
    (:meth:`_DeadlineBank.level_view`), ``active`` the mask of the jobs
    it is asked about; the peeled ledger must be empty.  In EDF order,
    each job joins the kept set; when the kept prefix overflows ``C * d``
    the largest demand in it leaves (the earliest, among equals).  A job
    that cannot fit even alone — an unreachable level included — leaves
    at once.  The kept set is then a largest staircase-feasible subset,
    under the same ``-1e-9`` slack threshold the pass applies.  Returns
    the removed jobs by global index, in EDF order.
    """
    sel = active.take(order)
    ids = order.compress(sel)
    removed: List[int] = []
    kept: List[Tuple[float, int]] = []  # a max-heap on demand
    prefix = 0.0
    for k, (d, e) in enumerate(zip(dcap.compress(sel).tolist(),
                                   eta.compress(sel).tolist())):
        if not d - e >= -1e-9:
            removed.append(k)
            continue
        heapq.heappush(kept, (-e, k))
        prefix += e
        while not d - prefix >= -1e-9:
            largest, j = heapq.heappop(kept)
            prefix += largest
            removed.append(j)
    removed.sort()
    return ids.take(removed)


def _tied_run(bank: _DeadlineBank, active_idx: npt.NDArray[np.intp],
              high: float, probed_top: float,
              ceiling: float) -> npt.NDArray[np.intp]:
    """The jobs the layers after a zero-pass fixed point peel, in order.

    ``high``, ``probed_top`` and ``ceiling`` are the fixed-point layer's;
    ``active_idx`` is the active set it left (index order).  Each layer
    of the run peels the first active job whose deadline at ``high`` is
    -inf — certificate (A)'s bottleneck — so the run is those jobs in
    index order.  It ends with the last job whose own ceiling is
    ``probed_top`` (after that peel the active minimum moves), and sooner
    if a peel would take the last job of the layer's ceiling with it.
    """
    run = active_idx.compress(bank.deadlines(high).take(active_idx) == -np.inf)
    tops = np.flatnonzero(bank.max_values.take(run) == probed_top)
    if not tops.size:
        return run[:0]
    run = run[:tops[-1] + 1]
    kept = np.ones(bank.max_values.size, dtype=bool)
    kept[run] = False
    rest = bank.max_values.take(active_idx.compress(kept.take(active_idx)))
    # Layer k of the run starts with run[k:] still active: its ceiling is
    # the larger of the rest's and run[k:]'s, which only falls with k.
    tail = np.maximum.accumulate(bank.max_values.take(run)[::-1])[::-1]
    np.maximum(tail, rest.max(initial=-np.inf), out=tail)
    return run[:int(np.count_nonzero(tail == ceiling))]


def _certify(level: float, lowest_ceiling: float,
             carried: Optional[Tuple[float, float]],
             slack_noise: float,
             failed_at: Optional[float]) -> Optional[bool]:
    """The verdict a staircase pass at ``level`` would return, or ``None``.

    Three certificates, all exact — they answer only what the pass itself
    would answer bit for bit, and abstain otherwise:

    (A) *Unreachable level.*  ``lowest_ceiling`` is the smallest of the
    active jobs' ``max_value()`` (``_DeadlineBank.max_values``).  By the
    ceiling rule every class obeys, a level above it gives that job the
    deadline ``-inf`` (its floor is no higher); its slack is
    ``-inf`` whatever the order and the prefix sums, so the pass is
    infeasible before a single sum is formed.

    (B) *Margin-carried level.*  ``carried = (level, m)`` says a real pass
    at this level had minimum slack ``m`` and every peel since pinned a
    job at its deadline for this level, clamped — never earlier.  The
    probe therefore sees the same (deadline, demand) multiset with some
    deadlines moved later, whose exact minimum slack is no smaller; two
    float evaluations of it differ by at most ``slack_noise``.  When
    ``m - slack_noise`` still clears the pass's own ``-1e-9`` threshold
    the pass is feasible; a tighter margin abstains and the pass runs.

    (C) *Repeated infeasible level.*  ``failed_at`` is the level of the
    layer's most recent infeasible pass, run on the same active set and
    the same ledger (the caller drops it at every peel).  The pass is a
    pure function of the level, the active set and the ledger, so the
    repeat would evaluate the very same floats and fail the same way;
    the caller re-reads its bottleneck from the slack, order
    and merge positions it kept.  This answers the ``need_bottleneck``
    probe at ``high``, which the bisection has always just evaluated
    unless ``high`` is the ceiling and a later seed probe also failed.
    """
    if level > lowest_ceiling:
        return False
    if (carried is not None and level == carried[0]
            and carried[1] - slack_noise >= -1e-9):
        return True
    if failed_at is not None and level == failed_at:
        return False
    return None


def _clamp_completion(deadline: float, horizon: int) -> int:
    if not math.isfinite(deadline):
        return horizon
    return int(min(max(deadline, 1.0), horizon))
