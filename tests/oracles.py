"""Brute-force reference answers the solvers are checked against.

Nothing here may import from the code under test beyond the data types
and the scalar closed form :func:`repro.core.rem.rem_min_kl_from_cdf`
(``math.log`` on one float — the batch solver only ever calls the numpy
twin), so an oracle shares no search logic with what it judges.
"""

from __future__ import annotations

from typing import List

from repro.core.rem import rem_min_kl_from_cdf
from repro.estimation.pmf import Pmf


def linear_scan_eta(pmf: Pmf, theta: float, delta: float) -> int:
    """The WCDE robust quantile by a top-down linear scan of every bin.

    ``eta = 1 + max{L < support_max : g(L) <= delta}``, clamped to at
    least the reference quantile.  The ``g(L) <= delta`` rule only holds
    for a positive KL budget: pushing ``CDF(L)`` *strictly* below theta
    costs arbitrarily close to ``g(L)`` but always more than zero, so at
    ``delta == 0`` the adversary is pinned to the reference quantile even
    when some ``g(L) == 0`` exactly (a CDF value tied at theta).
    """
    anchor = pmf.quantile(theta)
    ceiling = pmf.support_max()
    if theta >= 1.0:
        return ceiling
    if delta > 0.0:
        cdf = pmf.cdf()
        for level in range(ceiling - 1, anchor - 1, -1):
            if rem_min_kl_from_cdf(float(cdf[level]), theta) <= delta + 1e-12:
                return max(level + 1, anchor)
    return anchor


def mixed_path_rows() -> List[Pmf]:
    """One reference per batch-solver path: shortcut, narrow, wide.

    An impulse has ``anchor == ceiling`` (shortcut); the tight Gaussian's
    candidate range fits the vectorized sweep; the broad one exceeds
    ``_SCAN_WIDTH`` and takes the lockstep bisection.
    """
    return [Pmf.impulse(7, tau_max=12),
            Pmf.from_gaussian(30.0, 3.0, tau_max=50),
            Pmf.from_gaussian(150.0, 25.0, tau_max=302)]
