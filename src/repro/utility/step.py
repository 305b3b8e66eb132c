"""Hard-deadline (step) utility — an extension beyond the paper's classes.

The paper ships piece-wise linear, sigmoid and constant classes and
"encourages users to submit their own".  A step utility is the natural
fourth member: full priority on time, zero afterwards, i.e. a *hard*
deadline in the classical real-time-systems sense.  It is also the
``beta -> inf`` limit of :class:`repro.utility.sigmoid.SigmoidUtility`,
which makes it a useful oracle in tests.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.utility.base import UtilityFunction

__all__ = ["StepUtility"]


class StepUtility(UtilityFunction):
    """``U(T) = priority`` if ``T <= budget`` else ``0``."""

    __slots__ = ("budget", "priority")
    PARAMS = ("budget", "priority")

    def __init__(self, budget: float, priority: float) -> None:
        self.budget = self._require_non_negative("budget", budget)
        self.priority = self._require_positive("priority", priority)

    def value(self, completion_time: float) -> float:
        return self.priority if completion_time <= self.budget else 0.0

    def max_value(self) -> float:
        return self.priority

    def min_value(self) -> float:
        return 0.0

    @classmethod
    def inverse(cls, params: npt.NDArray[np.float64],
                level: float) -> npt.NDArray[np.float64]:
        # Full priority up to the budget: every level the ceiling rule
        # leaves open is met exactly until then.
        return params[0].copy()
