"""Quantized probability mass functions over demand bins.

The RUSH formulation replaces the continuous demand density
``omega_i(v_i)`` with a discrete PMF obtained by quantizing demand into
integer bins ``l = 0 .. tau_max`` (Section III-A of the paper).  Bin ``l``
represents a total demand of ``l`` quantization units; the estimator that
produced the PMF knows how many container-time-slots one unit is worth
(see :class:`repro.estimation.base.DemandEstimate`).

This module is the numeric foundation for the whole robust layer: the REM
closed-form solver, the WCDE bisection and the distribution estimators all
speak :class:`Pmf`.
"""

from __future__ import annotations

import functools
import hashlib
import math
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import numpy.typing as npt

from repro.errors import DistributionError

__all__ = ["Pmf", "gaussian_pmf", "kl_divergence"]

#: Probabilities smaller than this are treated as exact zeros when
#: validating and when computing KL divergences.
_PROB_ATOL = 1e-12


class Pmf:
    """An immutable probability mass function on bins ``0 .. tau_max``.

    Parameters
    ----------
    probs:
        Bin probabilities.  Must be non-negative.  Unless ``normalize`` is
        true they must already sum to one (within a small tolerance).
    normalize:
        When true, ``probs`` is rescaled to sum to one.  An all-zero vector
        is rejected either way.

    The probability vector is stored as a read-only ``numpy`` array; all
    accessors return copies or read-only views so instances can safely be
    shared between scheduler components.
    """

    __slots__ = ("_probs", "_cdf", "_fingerprint")

    def __init__(self, probs: Iterable[float], *, normalize: bool = False) -> None:
        arr = np.asarray(list(probs) if not isinstance(probs, np.ndarray) else probs,
                         dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise DistributionError("a PMF needs a non-empty 1-D probability vector")
        if np.any(~np.isfinite(arr)):
            raise DistributionError("PMF probabilities must be finite")
        if np.any(arr < -_PROB_ATOL):
            raise DistributionError("PMF probabilities must be non-negative")
        arr = np.clip(arr, 0.0, None)
        total = float(arr.sum())
        if total <= 0.0:
            raise DistributionError("PMF probabilities sum to zero")
        if normalize:
            arr = arr / total
        elif abs(total - 1.0) > 1e-6:
            raise DistributionError(
                f"PMF probabilities sum to {total:.9f}, expected 1 "
                "(pass normalize=True to rescale)")
        else:
            arr = arr / total  # exact renormalization of rounding noise
        arr.setflags(write=False)
        self._probs = arr
        cdf = np.cumsum(arr)
        cdf.setflags(write=False)
        self._cdf = cdf
        self._fingerprint: Optional[bytes] = None

    # -- constructors ---------------------------------------------------

    @classmethod
    def impulse(cls, bin_index: int, *, tau_max: int | None = None) -> "Pmf":
        """A distribution with all mass on ``bin_index``.

        This is the shape reported by the paper's *mean time estimator*,
        which returns "an impulse distribution at the bin equal to the
        multiple of the mean container runtime and the number of pending
        tasks".
        """
        if bin_index < 0:
            raise DistributionError("impulse bin index must be >= 0")
        size = (tau_max if tau_max is not None else bin_index) + 1
        if size <= bin_index:
            raise DistributionError(
                f"tau_max={tau_max} cannot hold an impulse at bin {bin_index}")
        probs = np.zeros(size)
        probs[bin_index] = 1.0
        return cls(probs)

    @classmethod
    def from_samples(cls, samples: Sequence[float], *, tau_max: int | None = None) -> "Pmf":
        """Empirical PMF from raw demand samples (values are bin indices).

        Samples are rounded to the nearest bin and clipped at zero.  When
        ``tau_max`` is omitted the support extends to the largest sample.
        """
        if len(samples) == 0:
            raise DistributionError("cannot build an empirical PMF from zero samples")
        idx = np.rint(np.asarray(samples, dtype=float)).astype(int)
        if np.any(idx < 0):
            raise DistributionError("demand samples must be non-negative")
        top = int(idx.max())
        size = (tau_max if tau_max is not None else top) + 1
        if top >= size:
            raise DistributionError(
                f"tau_max={tau_max} smaller than largest sample bin {top}")
        counts = np.bincount(idx, minlength=size).astype(float)
        return cls(counts, normalize=True)

    @classmethod
    def from_gaussian(cls, mean: float, std: float, *,
                      tau_max: int | None = None) -> "Pmf":
        """Discretized Gaussian with the given mean and standard deviation.

        The paper's Gaussian estimator invokes the central limit theorem on
        the total demand of the pending tasks, then quantizes.  Bin ``l``
        receives the probability mass of the interval ``(l - 0.5, l + 0.5]``
        under N(mean, std^2); the first and last bins absorb the tails so
        the result is a proper PMF.  ``tau_max`` defaults to
        ``mean + 6 * std``.
        """
        if std < 0:
            raise DistributionError("standard deviation must be >= 0")
        if mean < 0:
            raise DistributionError("mean demand must be >= 0")
        if std <= 1e-9 * max(mean, 1.0):
            # effectively deterministic; avoid dividing by a denormal std
            return cls.impulse(int(round(mean)), tau_max=tau_max)
        top = tau_max if tau_max is not None else int(math.ceil(mean + 6.0 * std))
        top = max(top, 1)
        edges = np.arange(top + 2) - 0.5  # bin l covers (l-0.5, l+0.5]
        z = (edges - mean) / (std * math.sqrt(2.0))
        cdf = 0.5 * (1.0 + _erf(z))
        probs = np.diff(cdf)
        probs[0] += cdf[0]          # left tail into bin 0
        probs[-1] += 1.0 - cdf[-1]  # right tail into the last bin
        return cls(probs, normalize=True)

    # -- accessors ------------------------------------------------------

    @property
    def probs(self) -> npt.NDArray[np.float64]:
        """Read-only probability vector, indexed by bin."""
        return self._probs

    @property
    def tau_max(self) -> int:
        """Index of the last bin."""
        return self._probs.size - 1

    def __len__(self) -> int:
        return self._probs.size

    def __getitem__(self, bin_index: int) -> float:
        return float(self._probs[bin_index])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        if self._probs.size != other._probs.size:
            return False
        return bool(np.allclose(self._probs, other._probs, atol=1e-12))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Pmf(tau_max={self.tau_max}, mean={self.mean():.3f}, "
                f"std={self.std():.3f})")

    def fingerprint(self) -> bytes:
        """Content digest of the exact probability vector.

        Two PMFs share a fingerprint iff their (normalized) probability
        vectors are bit-identical, which makes the digest a safe memo key
        for any pure function of the distribution — notably the WCDE
        solve, whose result is fully determined by ``(fingerprint, theta,
        delta)``.  The digest is computed once and cached; it covers the
        support size, so a padded copy hashes differently.
        """
        if self._fingerprint is None:
            self._fingerprint = hashlib.blake2b(
                self._probs.tobytes(), digest_size=16).digest()
        return self._fingerprint

    # -- statistics -----------------------------------------------------

    def mean(self) -> float:
        """Expected bin index."""
        return float(np.dot(self._probs, np.arange(self._probs.size)))

    def var(self) -> float:
        """Variance of the bin index."""
        bins = np.arange(self._probs.size)
        m = self.mean()
        return float(np.dot(self._probs, (bins - m) ** 2))

    def std(self) -> float:
        """Standard deviation of the bin index."""
        return math.sqrt(self.var())

    def cdf(self) -> npt.NDArray[np.float64]:
        """Read-only cumulative distribution, ``cdf()[l] = P(v <= l)``."""
        return self._cdf

    def cdf_at(self, bin_index: int) -> float:
        """``P(v <= bin_index)``; 0 below the support, 1 above it."""
        if bin_index < 0:
            return 0.0
        if bin_index >= self._probs.size:
            return 1.0
        return float(self._cdf[bin_index])

    def quantile(self, theta: float) -> int:
        """Smallest bin ``l`` with ``P(v <= l) >= theta``.

        This is the ``Phi^{-1}(theta)`` of Algorithm 2, used to seed the
        WCDE bisection with a certainly-achievable objective.
        """
        if not 0.0 <= theta <= 1.0:
            raise DistributionError(f"theta={theta} outside [0, 1]")
        # rushlint: disable=RL003 (exact-zero sentinel: the 0-quantile
        # is bin 0 by definition; tolerance would swallow real thetas)
        if theta == 0.0:
            return 0
        # side='left' yields the first index whose CDF is >= theta.
        idx = int(np.searchsorted(self._cdf, theta - 1e-12, side="left"))
        return min(idx, self.tau_max)

    def support_min(self) -> int:
        """Smallest bin with non-zero probability."""
        nz = np.nonzero(self._probs > _PROB_ATOL)[0]
        return int(nz[0])

    def support_max(self) -> int:
        """Largest bin with non-zero probability.

        No distribution within a *finite* KL distance of this PMF can place
        mass above this bin, so it upper-bounds every worst-case quantile.
        """
        nz = np.nonzero(self._probs > _PROB_ATOL)[0]
        return int(nz[-1])

    # -- transformations ------------------------------------------------

    def padded(self, tau_max: int) -> "Pmf":
        """Return a copy whose support is extended with zero bins."""
        if tau_max < self.tau_max:
            raise DistributionError(
                f"cannot pad to tau_max={tau_max} < current {self.tau_max}")
        probs = np.zeros(tau_max + 1)
        probs[: self._probs.size] = self._probs
        return Pmf(probs)

    def rebinned(self, factor: int) -> "Pmf":
        """Coarsen the PMF by merging ``factor`` adjacent bins into one.

        Used when an estimator chooses a coarser quantization to keep the
        WCDE bisection cheap for very large demands.
        """
        if factor < 1:
            raise DistributionError("rebinning factor must be >= 1")
        if factor == 1:
            return self
        size = (self._probs.size + factor - 1) // factor
        probs = np.zeros(size)
        for l, p in enumerate(self._probs):
            probs[l // factor] += p
        return Pmf(probs, normalize=True)

    def mixed_with(self, other: "Pmf", weight: float) -> "Pmf":
        """Convex mixture ``(1 - weight) * self + weight * other``.

        Handy for smoothing an empirical PMF with a prior so the KL ball in
        the WCDE problem has full support.
        """
        if not 0.0 <= weight <= 1.0:
            raise DistributionError(f"mixture weight {weight} outside [0, 1]")
        size = max(self._probs.size, other._probs.size)
        a = self.padded(size - 1) if self._probs.size < size else self
        b = other.padded(size - 1) if other._probs.size < size else other
        return Pmf((1.0 - weight) * a.probs + weight * b.probs, normalize=True)


@functools.lru_cache(maxsize=128, typed=True)
def gaussian_pmf(mean: float, std: float, tau_max: int) -> Pmf:
    """:meth:`Pmf.from_gaussian`, memoized on its exact arguments.

    The Gaussian DE classes report through here: a job whose moments and
    pending count did not move asks for the very same discretisation
    again, and a :class:`Pmf` is immutable, so the one built first (with
    its cached fingerprint) is handed out again.  The memo keeps the 128
    most recently used.
    """
    return Pmf.from_gaussian(mean, std, tau_max=tau_max)


def kl_divergence(p: Union[Pmf, npt.NDArray[np.float64]],
                  q: Union[Pmf, npt.NDArray[np.float64]]) -> float:
    """Kullback-Leibler divergence ``D(p || q)`` in nats.

    This is the "relative entropy" distance of constraint (5) in the paper:
    ``sum_l p_l * ln(p_l / q_l)`` with the conventions ``0 ln 0 = 0`` and
    ``p_l > 0, q_l = 0  =>  +inf``.  The supports are aligned by padding
    the shorter vector with zero bins.
    """
    pv = p.probs if isinstance(p, Pmf) else np.asarray(p, dtype=float)
    qv = q.probs if isinstance(q, Pmf) else np.asarray(q, dtype=float)
    size = max(pv.size, qv.size)
    if pv.size < size:
        pv = np.pad(pv, (0, size - pv.size))
    if qv.size < size:
        qv = np.pad(qv, (0, size - qv.size))
    mask = pv > _PROB_ATOL
    if np.any(qv[mask] <= _PROB_ATOL):
        return math.inf
    return float(np.sum(pv[mask] * np.log(pv[mask] / qv[mask])))


#: ``math.erf`` is exactly ±1.0 from here outward (fdlibm and glibc return
#: ``one - tiny`` for |x| >= 6), so edges out there skip the call.
_ERF_SATURATION = 6.0


def _erf(x: npt.NDArray[np.float64]) -> npt.NDArray[np.float64]:
    """:func:`math.erf` over an *ascending* array, bit for bit (stdlib, so
    a Gaussian estimate loads nothing beyond numpy); ``tests/test_pmf.py``
    pins both the equality and the saturation the skipped tails rely on."""
    out = np.where(x < 0.0, -1.0, 1.0)
    lo, hi = np.searchsorted(x, (-_ERF_SATURATION, _ERF_SATURATION))
    out[lo:hi] = np.fromiter(map(math.erf, x[lo:hi].tolist()), float, hi - lo)
    return out
