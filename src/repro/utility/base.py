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

The inverse is asked in two shapes: one job at a time
(:meth:`UtilityFunction.deadline_for`) and for a whole fleet at once
(the onion's deadline bank).  Both read one definition per class: a
class that lists its parameters in ``PARAMS`` states its closed form
once, vectorised, in :meth:`UtilityFunction.inverse`, and both shapes
wrap it in the one ceiling rule, :func:`apply_ceiling_rule`.

Completion-times are measured in time slots since job submission.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np
import numpy.typing as npt

from repro.errors import ConfigurationError

__all__ = ["UtilityFunction", "apply_ceiling_rule"]


def apply_ceiling_rule(deadlines: npt.NDArray[np.float64], level: float,
                       floors: npt.NDArray[np.float64],
                       ceilings: npt.NDArray[np.float64], *,
                       bounds: Tuple[float, float] = (-math.inf, math.inf)
                       ) -> None:
    """Overwrite, in place, the deadlines the bounds alone decide.

    A level at or below a job's ``min_value()`` (its floor) is attained
    at every completion-time: ``+inf``.  A level above its
    ``max_value()`` (its ceiling) is attained at none: ``-inf``.  The
    floor wins a tie, as it does in :meth:`UtilityFunction.deadline_for`.

    ``bounds`` may give ``(min(ceilings), max(floors))``, computed once by
    a caller that asks many levels: a level at or below the lowest
    ceiling, or above the highest floor, then skips the mask it cannot
    change.  A NaN bound skips nothing.
    """
    if not level <= bounds[0]:
        deadlines[level > ceilings] = -np.inf
    if not level > bounds[1]:
        deadlines[level <= floors] = np.inf


class UtilityFunction(ABC):
    """A non-increasing function from completion-time to utility.

    Implementations must guarantee ``value(t1) >= value(t2)`` whenever
    ``t1 <= t2`` — satisfaction never increases with delay.  The planner
    relies on this monotonicity for the correctness of its bisection
    searches.

    A class with a closed-form inverse names, in ``PARAMS``, the
    attributes it reads, and states the form once in :meth:`inverse`;
    ``deadline_for``, equality, hashing and ``repr`` are then derived
    from that list.  A class without one keeps ``PARAMS`` empty and may
    override ``deadline_for``, which must follow the ceiling rule; so may
    a subclass that inherits ``PARAMS``, and the onion then asks its
    override, not the inherited ``inverse``.
    """

    #: The attributes :meth:`inverse` reads, one row of its ``params``
    #: each, in that order; empty for a class without a closed form.
    PARAMS: Tuple[str, ...] = ()

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

    @classmethod
    def inverse(cls, params: npt.NDArray[np.float64],
                level: float) -> npt.NDArray[np.float64]:
        """``U^{-1}(level)`` in closed form, one entry per column of
        ``params`` (one row per name in ``PARAMS``).

        Entries whose level is at or below the floor or above the
        ceiling are overwritten by the ceiling rule, but are computed
        first: the form must raise no floating-point state at any level.
        """
        raise NotImplementedError(f"{cls.__name__} has no closed-form inverse")

    def deadline_for(self, level: float) -> float:
        """Latest completion-time that still attains utility >= ``level``.

        Returns ``math.inf`` when every completion-time attains the level
        (the job imposes no constraint at this utility layer) and
        ``-math.inf`` when no completion-time does (the level is above the
        job's ceiling).  A class with ``PARAMS`` answers through
        :meth:`inverse`, as a batch of one; otherwise this default performs
        a monotone bisection on :meth:`value` so user-defined utilities
        work out of the box.
        """
        if level <= self.min_value():
            return math.inf
        if level > self.max_value():
            return -math.inf
        if self.PARAMS:
            column = np.array([[getattr(self, name)] for name in self.PARAMS],
                              dtype=float)
            return float(self.inverse(column, level)[0])
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

    # -- derived from PARAMS ----------------------------------------------

    def __repr__(self) -> str:
        if not self.PARAMS:
            return object.__repr__(self)
        fields = ", ".join(f"{name}={getattr(self, name)}"
                           for name in self.PARAMS)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: object) -> bool:
        if not self.PARAMS or type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.PARAMS)

    def __hash__(self) -> int:
        if not self.PARAMS:
            return object.__hash__(self)
        return hash((type(self).__name__,
                     *(getattr(self, name) for name in self.PARAMS)))

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
