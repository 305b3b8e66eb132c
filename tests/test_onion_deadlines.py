"""The deadline bank's level queries, pinned bit for bit.

``_DeadlineBank.raw_deadlines`` branches once on the scalar level and
masks unreachable entries by assignment; ``deadlines`` caps, nudges and
floors every entry in place.  Each probe's verdict depends on these
floats, so they must equal — byte for byte, not approximately — the
nested ``np.where`` / ``np.clip`` / masked-floor expressions they
replaced, frozen below.  The levels are the edges: non-positive levels,
the smallest level the sigmoid formula guards against, each class's
exact ``-inf`` threshold, one ulp above it, and above every ceiling.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest

from repro.core.onion import OnionJob, _DeadlineBank
from repro.utility import (ConstantUtility, LinearUtility, SigmoidUtility,
                           StepUtility)

from .test_onion_certificates import HyperbolicUtility

HORIZON = 40


def frozen_raw_deadlines(bank: _DeadlineBank, level: float) -> np.ndarray:
    """``raw_deadlines`` as the expressions read before the rewrite."""
    d = np.empty(bank._n, dtype=float)
    if bank._lin.size:
        d[bank._lin] = np.where(
            level <= 0.0, np.inf,
            np.where(level > bank._lin_top, -np.inf,
                     bank._lin_b + (bank._lin_w - level) / bank._lin_beta))
    if bank._sig.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.clip(bank._sig_w / max(level, 1e-300) - 1.0,
                            1e-300, None)
            formula = bank._sig_b + np.log(ratio) / bank._sig_beta
        d[bank._sig] = np.where(level <= 0.0, np.inf,
                                np.where(level > bank._sig_top, -np.inf,
                                         formula))
    if bank._flat.size:
        d[bank._flat] = np.where(level <= bank._flat_top, np.inf, -np.inf)
    if bank._step.size:
        d[bank._step] = np.where(
            level <= 0.0, np.inf,
            np.where(level > bank._step_top, -np.inf, bank._step_b))
    for pos, util in zip(bank._other, bank._other_utils):
        d[pos] = util.deadline_for(level)
    return d


def frozen_deadlines(bank: _DeadlineBank, level: float) -> np.ndarray:
    """``deadlines`` as the expressions read before the rewrite."""
    d = frozen_raw_deadlines(bank, level) - bank._offsets
    d = np.minimum(d, bank._horizon)
    finite = np.isfinite(d)
    d[finite] = np.floor(d[finite] + 1e-9)
    return d


def fleet() -> List[OnionJob]:
    """Every class, several parameter shapes each (a sigmoid with budget
    0 tops out at half its priority), interleaved so no class owns a
    contiguous block, with elapsed time and compensation offsets."""
    utilities = [
        LinearUtility(10.0, 1.0, 0.2), SigmoidUtility(12.0, 2.0, 0.5),
        ConstantUtility(1.5), StepUtility(7.0, 3.0),
        HyperbolicUtility(2.0, 9.0), LinearUtility(0.0, 0.5, 1.0),
        SigmoidUtility(0.0, 1.0, 2.0), ConstantUtility(0.0),
        StepUtility(0.0, 0.5), LinearUtility(35.0, 3.0, 0.05),
        SigmoidUtility(30.0, 3.0, 0.05), SigmoidUtility(4.0, 0.5, 8.0),
    ]
    offsets = [(0.0, 0.0), (1.5, 0.0), (0.0, 0.75), (7.0, 2.0)]
    return [OnionJob(f"j{i}", 3.0, u, *offsets[i % len(offsets)])
            for i, u in enumerate(utilities)]


def edge_levels(bank: _DeadlineBank) -> List[float]:
    tops = np.concatenate([bank._lin_top, bank._sig_top, bank._flat_top,
                           bank._step_top])
    levels = [-1.0, -0.0, 0.0, 1e-300, 1e-12,
              float(bank.max_values.max()) * 2.0 + 1.0]
    for top in tops:
        levels += [float(top), float(np.nextafter(top, np.inf)),
                   float(np.nextafter(top, -np.inf))]
    levels += [float(v) for v in bank.max_values]
    levels += [0.25, 0.5, 0.999, 1.0, 1.7, 2.5]
    return levels


@pytest.fixture(scope="module")
def bank() -> _DeadlineBank:
    return _DeadlineBank(fleet(), HORIZON)


def test_every_class_has_an_edge_to_pin(bank):
    for idx in (bank._lin, bank._sig, bank._flat, bank._step):
        assert idx.size >= 2
    assert len(bank._other) == 1


def test_raw_deadlines_equal_the_frozen_expressions(bank):
    for level in edge_levels(bank):
        # No floating-point state is raised at any edge: the rewrite
        # dropped the np.errstate that used to silence one.
        with np.errstate(all="raise"):
            got = bank.raw_deadlines(level)
        want = frozen_raw_deadlines(bank, level)
        assert got.tobytes() == want.tobytes(), level


def test_deadlines_equal_the_frozen_expressions(bank):
    seen_inf = seen_finite = False
    for level in edge_levels(bank):
        with np.errstate(all="raise"):
            got = bank.deadlines(level)
        want = frozen_deadlines(bank, level)
        assert got.tobytes() == want.tobytes(), level
        assert not got.flags.writeable
        seen_inf |= bool(np.isneginf(got).any())
        seen_finite |= bool(np.isfinite(got).any())
    assert seen_inf and seen_finite


def test_each_threshold_is_the_last_reachable_level(bank):
    """At a class's own ``_top`` its jobs still have a deadline; one ulp
    above it they have none — the edge certificate (A) predicts."""
    for idx, tops in ((bank._lin, bank._lin_top), (bank._sig, bank._sig_top),
                      (bank._step, bank._step_top)):
        for pos, top in zip(idx, tops):
            assert bank.raw_deadlines(float(top))[pos] > -np.inf
            above = float(np.nextafter(top, np.inf))
            assert bank.raw_deadlines(above)[pos] == -np.inf
