"""Theorem 2's staircase feasibility test as a public helper.

Condition (12) of the paper — ``sum of the demands due by each deadline
never exceeds capacity x deadline`` — is the schedulability criterion
underlying the whole TAS layer.  The onion peeling and LP solvers embed
vectorized variants internally; this module exposes the plain form so
users (and the test suite) can verify schedules independently.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["staircase_feasible", "first_violation", "minimum_capacity"]


def _normalize(pairs: Iterable[Tuple[float, float]]) -> Sequence[Tuple[float, float]]:
    items = [(float(d), float(eta)) for d, eta in pairs]
    for deadline, demand in items:
        if demand < 0 or math.isnan(demand):
            raise ConfigurationError(f"demand must be >= 0, got {demand}")
        if math.isnan(deadline):
            raise ConfigurationError("deadline must not be NaN")
    return sorted(items)


def first_violation(pairs: Iterable[Tuple[float, float]],
                    capacity: float) -> int | None:
    """Index (in deadline order) of the first violated constraint.

    ``pairs`` are ``(deadline, demand)`` tuples; returns ``None`` when the
    staircase condition holds everywhere.  Jobs with zero demand never
    violate; a positive demand with a non-positive deadline always does.
    """
    if capacity <= 0:
        raise ConfigurationError(f"capacity must be positive, got {capacity}")
    prefix = 0.0
    for index, (deadline, demand) in enumerate(_normalize(pairs)):
        prefix += demand
        if prefix > 0.0 and prefix > capacity * deadline + 1e-9:
            return index
    return None


def staircase_feasible(pairs: Iterable[Tuple[float, float]],
                       capacity: float) -> bool:
    """Whether demands fit their deadlines on ``capacity`` containers.

    By Theorem 2 this is equivalent to the existence of a (fractional)
    container schedule meeting every deadline — the LP feasibility of
    the test oracle ``tests/tas_lp.py::lp_feasible``.
    """
    return first_violation(pairs, capacity) is None


def minimum_capacity(pairs: Iterable[Tuple[float, float]]) -> float:
    """The smallest capacity for which the pairs are staircase-feasible.

    Useful for capacity planning: ``max over deadlines of (cumulative
    demand / deadline)``.  Raises if any positive demand has a
    non-positive deadline (no finite capacity suffices).
    """
    worst = 0.0
    prefix = 0.0
    for deadline, demand in _normalize(pairs):
        prefix += demand
        if prefix <= 0:
            continue
        if deadline <= 0:
            raise ConfigurationError(
                "positive demand with non-positive deadline has no finite "
                "capacity requirement")
        worst = max(worst, prefix / deadline)
    return worst
