"""Piece-wise linear utility class from Section IV of the paper.

Given a completion-time ``T``, the linear class produces
``max(beta * (B - T) + W, 0)``: the job is worth ``beta * B + W`` when it
finishes instantly, decays linearly at rate ``beta`` and bottoms out at
zero once it is hopelessly late.  It models completion-time *sensitive*
jobs whose value erodes steadily with delay.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.utility.base import UtilityFunction

__all__ = ["LinearUtility"]


class LinearUtility(UtilityFunction):
    """``U(T) = max(beta * (budget - T) + priority, 0)``.

    Parameters
    ----------
    budget:
        Time budget ``B`` in slots; the utility equals ``priority`` exactly
        at the budget.
    priority:
        Priority value ``W`` — the utility still awarded at the budget.
    beta:
        Sensitivity ``beta > 0``: utility lost per slot of delay.
    """

    __slots__ = ("budget", "priority", "beta")
    PARAMS = ("budget", "priority", "beta")

    def __init__(self, budget: float, priority: float, beta: float = 1.0) -> None:
        self.budget = self._require_non_negative("budget", budget)
        self.priority = self._require_non_negative("priority", priority)
        self.beta = self._require_positive("beta", beta)

    def value(self, completion_time: float) -> float:
        return max(self.beta * (self.budget - completion_time) + self.priority, 0.0)

    def max_value(self) -> float:
        return self.beta * self.budget + self.priority

    def min_value(self) -> float:
        return 0.0

    @classmethod
    def inverse(cls, params: npt.NDArray[np.float64],
                level: float) -> npt.NDArray[np.float64]:
        # Solve beta * (B - T) + W = level for T.
        budget, priority, beta = params
        return budget + (priority - level) / beta

    def zero_utility_time(self) -> float:
        """First completion-time at which the utility hits zero."""
        return self.budget + self.priority / self.beta
