"""Worst-Case Distribution Estimation — Algorithm 2 of the paper.

Given a reference demand distribution ``phi_i`` (from a distribution
estimator), a completion-probability percentile ``theta`` and an entropy
threshold ``delta_i``, the WCDE problem finds the largest theta-quantile
any distribution within KL distance ``delta_i`` of the reference can have:

    eta_i = max_{omega : D(omega || phi_i) <= delta_i}  Omega_i^{-1}(theta).

Allocating at least ``eta_i`` container-time-slots to job ``i`` then
guarantees the robust constraint (3): the job receives enough resources
with probability at least ``theta`` under *every* distribution in the KL
ball, not just the estimated one.

The search exploits two monotonicity facts:

* the minimal KL cost of forcing ``CDF(L) <= theta`` (the REM value
  ``g(L)``) is non-decreasing in ``L``, so feasibility of a candidate
  objective is monotone and bisection applies;
* no distribution at finite KL distance can place mass above the
  reference's support, so the support maximum caps the answer.

With the O(1) REM evaluation of :mod:`repro.core.rem`, one WCDE solve
costs ``O(log tau_max)`` bisection steps over the reference's cached CDF
(narrow search ranges are swept in a single vectorized REM evaluation
instead).  The adversary's boundary distribution is *not* materialized by
the solve: :attr:`WcdeResult.worst_pmf` runs the closed-form REM solve on
first access, so hot paths that only consume ``eta_bin`` — the planner —
never pay for the allocation.  For planning loops that re-solve the same
references every scheduling event, :class:`WcdeCache` memoizes whole
results under the content key ``(PMF fingerprint, theta, delta)``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.core.rem import rem_min_kl_from_cdf_array, solve_rem
from repro.estimation.pmf import Pmf

__all__ = ["WcdeResult", "WcdeCache", "solve_wcde", "solve_wcde_batch",
           "worst_case_demand"]

#: Candidate ranges at most this wide skip the bisection loop and are
#: swept with one vectorized REM evaluation over the cached CDF.
_SCAN_WIDTH = 64

class WcdeResult:
    """Outcome of a WCDE solve.

    Attributes
    ----------
    eta_bin:
        The robust demand quantile in *bins*.  Multiply by the estimator's
        bin width to obtain ``eta_i`` in container-time-slots.
    reference_quantile:
        ``Phi^{-1}(theta)`` of the reference — the non-robust answer, and
        the bisection's lower anchor.  ``eta_bin >= reference_quantile``
        always: the reference itself lies inside every KL ball.
    worst_pmf:
        The adversary's boundary distribution: the REM minimizer at
        ``eta_bin - 1``, whose CDF there equals ``theta`` exactly in the
        binding case.  Any infinitesimally stronger perturbation would push
        the quantile to ``eta_bin``, which is why ``eta_bin`` slots must be
        reserved.  Computed lazily on first access (the planner's hot path
        only reads ``eta_bin`` and never pays for it).
    worst_kl:
        Its divergence from the reference.  Also lazy.
    iterations:
        Number of bisection steps taken (a vectorized range sweep counts
        as one).
    """

    __slots__ = ("eta_bin", "reference_quantile", "iterations",
                 "_reference", "_theta", "_worst_pmf", "_worst_kl")

    def __init__(self, eta_bin: int, reference_quantile: int, iterations: int,
                 reference: Pmf, theta: float) -> None:
        self.eta_bin = eta_bin
        self.reference_quantile = reference_quantile
        self.iterations = iterations
        self._reference = reference
        self._theta = theta
        self._worst_pmf: Optional[Pmf] = None
        self._worst_kl: Optional[float] = None

    def _materialize(self) -> None:
        boundary = max(self.eta_bin - 1, 0)
        sol = solve_rem(self._reference, boundary, self._theta)
        self._worst_pmf = sol.pmf if sol.pmf is not None else self._reference
        self._worst_kl = sol.kl

    @property
    def worst_pmf(self) -> Pmf:
        if self._worst_pmf is None:
            self._materialize()
        return self._worst_pmf  # type: ignore[return-value]

    @property
    def worst_kl(self) -> float:
        if self._worst_kl is None:
            self._materialize()
        return self._worst_kl  # type: ignore[return-value]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WcdeResult(eta_bin={self.eta_bin}, "
                f"reference_quantile={self.reference_quantile}, "
                f"iterations={self.iterations})")


def solve_wcde(reference: Pmf, theta: float, delta: float, *,
               need_worst_pmf: bool = True) -> WcdeResult:
    """Solve the WCDE problem for one reference (Algorithm 2).

    A batch of one: :func:`solve_wcde_batch` is the only solver, so the
    scalar entry point cannot drift from the path the planner runs.

    Parameters
    ----------
    reference:
        Quantized reference distribution ``phi_i`` reported by the DE unit.
    theta:
        Required completion probability, in ``[0, 1]``.
    delta:
        Entropy threshold ``delta_i >= 0``; larger values concede more
        ground to the adversary and yield more conservative schedules.
    need_worst_pmf:
        When true (the default, matching the historical API), the
        adversary's boundary distribution is materialized before the
        result is returned.  Pass ``False`` on hot paths that only
        consume ``eta_bin``/``reference_quantile``; the ``worst_pmf`` and
        ``worst_kl`` attributes then run the REM solve lazily on first
        access.
    """
    result = solve_wcde_batch([reference], theta, delta)[0]
    if need_worst_pmf:
        result._materialize()
    return result


def solve_wcde_batch(references: Sequence[Pmf], theta: float,
                     delta: float) -> List[WcdeResult]:
    """Solve the WCDE problem for a whole batch of references at once.

    The only WCDE solver (scalar :func:`solve_wcde` is a batch of one).
    Each row's answer depends on that row's own CDF alone — batch
    composition never changes it — and is checked against a brute-force
    linear scan in the tests.  Per row: the adversary's quantile exceeds
    a bin ``L`` iff it can push ``CDF(L)`` strictly below ``theta``,
    which costs (arbitrarily close to) the REM value ``g(L)`` whenever
    the reference keeps mass above ``L``; hence ``eta = 1 + max{L <
    support_max : g(L) <= delta}``, clamped to at least the reference
    quantile.  Two boundary regimes short-circuit: ``theta = 1`` demands
    covering the whole support, and ``delta = 0`` leaves the adversary
    no room at all (strict improvement has positive cost).  The search
    itself runs as vectorized numpy passes over the batch:

    * *narrow* rows (candidate range at most ``_SCAN_WIDTH`` wide, the
      overwhelmingly common case for calibrated estimators) are stacked
      into one padded CDF matrix and swept with a single
      :func:`rem_min_kl_from_cdf_array` call — padding with ``CDF = 1``
      makes every padded cell saturated (``g = inf``), so it can never be
      selected as feasible;
    * *wide* rows run a lockstep mask-per-row bisection: each step
      gathers one CDF value per still-open row and evaluates the REM
      objective for all of them in one vectorized call, so a batch of
      ``k`` rows costs ``O(log tau_max)`` numpy passes instead of
      ``O(k log tau_max)`` scalar evaluations.  ``low`` starts feasible
      (``CDF(anchor - 1) < theta``, so ``g = 0``) and ``high`` infeasible
      (``g(support_max) = inf``).

    Results are returned in input order.  Like :class:`WcdeCache`, the
    hot path never materializes ``worst_pmf`` (lazy on first access).
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigurationError(f"theta={theta} outside [0, 1]")
    if delta < 0.0 or math.isnan(delta):
        raise ConfigurationError(f"delta={delta} must be >= 0")

    n = len(references)
    results: List[Optional[WcdeResult]] = [None] * n
    with obs.get_tracer().span("wcde.solve_batch", size=n, theta=theta,
                           delta=delta) as span:
        narrow: List[Tuple[int, int, int, np.ndarray]] = []
        wide: List[Tuple[int, int, int, np.ndarray]] = []
        shortcuts = 0
        for i, reference in enumerate(references):
            anchor = reference.quantile(theta)
            ceiling = reference.support_max()
            if theta >= 1.0:
                results[i] = WcdeResult(eta_bin=ceiling,
                                        reference_quantile=anchor,
                                        iterations=0, reference=reference,
                                        theta=theta)
                shortcuts += 1
            # rushlint: disable=RL003 (exact-zero sentinel: delta=0 means the
            # adversary has literally no KL budget; any positive delta, however
            # small, must take the search path)
            elif delta == 0.0 or anchor >= ceiling:
                results[i] = WcdeResult(eta_bin=anchor,
                                        reference_quantile=anchor,
                                        iterations=0, reference=reference,
                                        theta=theta)
                shortcuts += 1
            else:
                low, high = anchor - 1, ceiling
                row = (i, anchor, ceiling, reference.cdf())
                if high - low <= _SCAN_WIDTH:
                    narrow.append(row)
                else:
                    wide.append(row)

        if narrow:
            k = len(narrow)
            widths = [row[2] - row[1] for row in narrow]  # high - low - 1
            padded = np.ones((k, max(widths) if widths else 1))
            for r, (_, anchor, ceiling, cdf) in enumerate(narrow):
                padded[r, :widths[r]] = cdf[anchor: ceiling]
            g = rem_min_kl_from_cdf_array(padded, theta)
            feas = g <= delta + 1e-12
            has_feasible = feas.any(axis=1)
            last = padded.shape[1] - 1 - np.argmax(feas[:, ::-1], axis=1)
            for r, (i, anchor, ceiling, _) in enumerate(narrow):
                low = anchor - 1
                if has_feasible[r]:
                    low = low + 1 + int(last[r])
                results[i] = WcdeResult(eta_bin=max(low + 1, anchor),
                                        reference_quantile=anchor,
                                        iterations=1, reference=references[i],
                                        theta=theta)

        if wide:
            k = len(wide)
            lows = np.array([row[1] - 1 for row in wide], dtype=np.int64)
            highs = np.array([row[2] for row in wide], dtype=np.int64)
            iters = np.zeros(k, dtype=np.int64)
            cdfs = [row[3] for row in wide]
            open_rows = np.nonzero(highs - lows > 1)[0]
            while open_rows.size:
                mids = (lows[open_rows] + highs[open_rows]) // 2
                p = np.empty(open_rows.size)
                for j, r in enumerate(open_rows):
                    p[j] = cdfs[r][mids[j]]
                feas = (rem_min_kl_from_cdf_array(p, theta)
                        <= delta + 1e-12)
                iters[open_rows] += 1
                lows[open_rows] = np.where(feas, mids, lows[open_rows])
                highs[open_rows] = np.where(feas, highs[open_rows], mids)
                open_rows = open_rows[
                    highs[open_rows] - lows[open_rows] > 1]
            for r, (i, anchor, ceiling, _) in enumerate(wide):
                results[i] = WcdeResult(
                    eta_bin=max(int(lows[r]) + 1, anchor),
                    reference_quantile=anchor, iterations=int(iters[r]),
                    reference=references[i], theta=theta)

        span.note(narrow_rows=len(narrow), bisect_rows=len(wide),
                  shortcut_rows=shortcuts)
    return results  # type: ignore[return-value]


class WcdeCache:
    """Bounded LRU memo of WCDE solves, keyed by distribution content.

    The key is ``(reference.fingerprint(), theta, delta)`` — a pure
    content address: any two references with bit-identical probability
    vectors share an entry, no matter which estimator produced them.
    Cached results are the lazy :class:`WcdeResult` objects themselves, so
    a hit costs one dict lookup and materializing ``worst_pmf`` through a
    cached result benefits every later caller of the same entry.

    ``hits`` / ``misses`` counters make the cache's effectiveness an
    observable number (surfaced by the planner's :class:`PlanStats
    <repro.core.planner.PlanStats>`); ``hits + misses`` is the number
    of lookups made: one per job per plan, since the planner sends every
    job's reference through the cache.

    Hits are the steady-state hot path (one per job per replan), so they
    only bump a counter; a per-hit trace event would put span
    construction inside the planner's inner loop and blow the
    benchmark's observability-overhead gate.  Misses are rare (cold cache
    or churned estimate) and carry diagnostic value, so they also emit a
    zero-width ``wcde.cache_miss`` trace event.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ConfigurationError(
                f"WcdeCache maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple[bytes, float, float], WcdeResult]" = \
            OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def solve(self, reference: Pmf, theta: float, delta: float) -> WcdeResult:
        """Memoized :func:`solve_wcde`: :meth:`solve_batch` of one."""
        return self.solve_batch([reference], theta, delta)[0]

    def solve_batch(self, references: Sequence[Pmf], theta: float,
                    delta: float) -> List[WcdeResult]:
        """Memoized :func:`solve_wcde_batch`: only cache misses are solved.

        Lookup accounting is that of a sequential loop of one-reference
        lookups: the first occurrence of a fingerprint missing from the
        cache counts as a miss, and every later duplicate in the same
        batch counts as a hit (the first occurrence would have populated
        the entry by then).  Only the deduplicated misses enter the
        vectorized batch solve.
        """
        t, d = float(theta), float(delta)
        n = len(references)
        results: List[Optional[WcdeResult]] = [None] * n
        pending: "OrderedDict[Tuple[bytes, float, float], List[int]]" = \
            OrderedDict()
        for i, reference in enumerate(references):
            key = (reference.fingerprint(), t, d)
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                obs.count("rush_wcde_cache_total", 1, "hit")
                results[i] = entry
                continue
            positions = pending.get(key)
            if positions is not None:
                # Duplicate within the batch: a one-at-a-time loop would
                # hit the entry created by the first occurrence.
                self.hits += 1
                obs.count("rush_wcde_cache_total", 1, "hit")
            else:
                positions = pending[key] = []
                self.misses += 1
                obs.count("rush_wcde_cache_total", 1, "miss")
                obs.get_tracer().event("wcde.cache_miss", theta=t, delta=d)
            positions.append(i)
        if pending:
            miss_refs = [references[positions[0]]
                         for positions in pending.values()]
            solved = solve_wcde_batch(miss_refs, theta, delta)
            for (key, positions), entry in zip(pending.items(), solved):
                self._entries[key] = entry
                for i in positions:
                    results[i] = entry
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
        return results  # type: ignore[return-value]


def worst_case_demand(reference: Pmf, theta: float, delta: float) -> int:
    """Convenience wrapper returning only the robust demand bin."""
    return solve_wcde_batch([reference], theta, delta)[0].eta_bin
