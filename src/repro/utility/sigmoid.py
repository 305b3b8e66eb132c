"""Sigmoid utility class from Section IV of the paper.

The sigmoid class models jobs whose value stays near the full priority
``W`` while the completion-time is within the budget ``B`` and then drops,
with the sensitivity coefficient ``beta`` controlling how steep the drop
is: a large ``beta`` describes a time-*critical* job (utility collapses
right after the budget), a small ``beta`` a time-*sensitive* one (gradual
decay).

.. note::
   The paper prints the formula as ``W / (1 + e^{beta (B - T)})``, which
   *increases* with ``T`` and contradicts the paper's own requirement that
   utilities be non-increasing (Section II).  We implement the evident
   intent, ``W / (1 + e^{beta (T - B)})``, which is worth ``W/2`` exactly
   at the budget and decays beyond it.  This erratum is recorded in
   DESIGN.md.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

from repro.utility.base import UtilityFunction

__all__ = ["SigmoidUtility"]


class SigmoidUtility(UtilityFunction):
    """``U(T) = priority / (1 + exp(beta * (T - budget)))``."""

    __slots__ = ("budget", "priority", "beta")
    PARAMS = ("budget", "priority", "beta")

    def __init__(self, budget: float, priority: float, beta: float = 0.5) -> None:
        self.budget = self._require_non_negative("budget", budget)
        self.priority = self._require_positive("priority", priority)
        self.beta = self._require_positive("beta", beta)

    def value(self, completion_time: float) -> float:
        z = self.beta * (completion_time - self.budget)
        if z > 700.0:  # exp would overflow; the utility is numerically zero
            return 0.0
        return self.priority / (1.0 + math.exp(z))

    def max_value(self) -> float:
        return self.value(0.0)

    def min_value(self) -> float:
        return 0.0

    @classmethod
    def inverse(cls, params: npt.NDArray[np.float64],
                level: float) -> npt.NDArray[np.float64]:
        # Solve priority / (1 + exp(beta (T - B))) = level for T.  The
        # log's argument is at least 1e-300: no divide or invalid state,
        # and a ceiling that rounds to the priority itself stays finite.
        budget, priority, beta = params
        d = priority / max(level, 1e-300)
        d -= 1.0
        np.maximum(d, 1e-300, out=d)
        np.log(d, out=d)
        d /= beta
        d += budget
        # A level at or below the ceiling is attained at time 0, so its
        # deadline is never in the past.
        return np.maximum(d, 0.0, out=d)
