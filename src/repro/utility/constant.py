"""Constant utility class from Section IV of the paper.

A constant utility describes a completion-time *insensitive* job: it is
worth its priority ``W`` no matter when it finishes.  Under lexicographic
max-min fairness such jobs are natural donors of capacity — delaying them
costs nothing, which is exactly how RUSH protects time-critical jobs in
the paper's experiments.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.utility.base import UtilityFunction

__all__ = ["ConstantUtility"]


class ConstantUtility(UtilityFunction):
    """``U(T) = priority`` for every completion-time ``T``."""

    __slots__ = ("priority",)
    PARAMS = ("priority",)

    def __init__(self, priority: float) -> None:
        self.priority = self._require_non_negative("priority", priority)

    def value(self, completion_time: float) -> float:
        return self.priority

    def max_value(self) -> float:
        return self.priority

    def min_value(self) -> float:
        return self.priority

    @classmethod
    def inverse(cls, params: npt.NDArray[np.float64],
                level: float) -> npt.NDArray[np.float64]:
        # Floor and ceiling coincide: the ceiling rule decides every level.
        return np.full(params.shape[1], np.inf)
