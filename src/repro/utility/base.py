"""Time-dependent utility functions.

RUSH measures each client's satisfaction with a non-increasing utility
function ``U_i(T_i)`` of the job's completion-time (Section II).  The onion
peeling algorithm additionally needs the *inverse*: given a target utility
level ``L``, the latest completion-time that still attains at least ``L``
(Section III-B).  This module defines the abstract interface; the concrete
classes the paper ships (piece-wise linear, sigmoid, constant) live in the
sibling modules, and users may subclass :class:`UtilityFunction` to
describe their own quality-of-service requirements, exactly like the
paper's job configuration interface encourages.

Completion-times are measured in time slots since job submission.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

from repro.errors import ConfigurationError

__all__ = ["UtilityFunction"]


class UtilityFunction(ABC):
    """A non-increasing function from completion-time to utility.

    Implementations must guarantee ``value(t1) >= value(t2)`` whenever
    ``t1 <= t2`` — satisfaction never increases with delay.  The planner
    relies on this monotonicity for the correctness of its bisection
    searches.
    """

    @abstractmethod
    def value(self, completion_time: float) -> float:
        """Utility attained when the job completes at ``completion_time``."""

    @abstractmethod
    def max_value(self) -> float:
        """The best achievable utility, ``value(0)``.

        Must be finite: the planner bisects between the two bounds, and
        ``solve_onion`` refuses a job whose ceiling or floor is not.
        """

    @abstractmethod
    def min_value(self) -> float:
        """The (finite) infimum of the utility as the completion-time grows."""

    def deadline_for(self, level: float) -> float:
        """Latest completion-time that still attains utility >= ``level``.

        Returns ``math.inf`` when every completion-time attains the level
        (the job imposes no constraint at this utility layer) and
        ``-math.inf`` when no completion-time does (the level is above the
        job's ceiling).  Concrete classes override this with a closed form;
        this default performs a monotone bisection on :meth:`value` so
        user-defined utilities work out of the box.
        """
        if level <= self.min_value():
            return math.inf
        if level > self.max_value():
            return -math.inf
        lo, hi = 0.0, 1.0
        while self.value(hi) >= level:
            hi *= 2.0
            if hi > 1e15:  # pragma: no cover - defensive; min_value should bound this
                return math.inf
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self.value(mid) >= level:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-9 * max(1.0, hi):
                break
        return lo

    # -- shared validation helpers --------------------------------------

    @staticmethod
    def _require_positive(name: str, value: float) -> float:
        if not (value > 0) or not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a positive finite number, got {value!r}")
        return float(value)

    @staticmethod
    def _require_non_negative(name: str, value: float) -> float:
        if value < 0 or not math.isfinite(value):
            raise ConfigurationError(f"{name} must be a non-negative finite number, got {value!r}")
        return float(value)
