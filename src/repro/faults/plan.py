"""Fault plans: composable, seeded, intensity-scalable injector sets.

A :class:`FaultPlan` bundles any number of injectors with one seed and an
intensity dial.  The plan owns the determinism story:

* the seed expands through a :class:`numpy.random.SeedSequence` into one
  (decision, variation) generator pair per injector, in list order, so a
  plan rebuilt from the same spec replays the identical fault stream;
* ``scaled(intensity)`` returns a fresh plan whose injectors fire with
  ``rate * intensity`` while consuming the *same* decision draws —
  raising the intensity fires a superset of the events (monotone
  coupling), which is what makes the ``rush chaos`` degradation curves
  comparable points of one experiment rather than unrelated runs.

Plans serialize to/from a small JSON spec::

    {"seed": 7, "intensity": 1.0,
     "injectors": [{"kind": "container_crash", "rate": 0.02},
                   {"kind": "straggler", "rate": 0.05, "slowdown": 2.0}]}

``rush simulate --faults spec.json`` and ``rush chaos`` consume exactly
this format.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro import state as st
from repro.errors import ConfigurationError
from repro.faults.base import FaultContext, FaultInjector, FaultLog
from repro.faults.injectors import SpecFailureInjector, injector_from_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.job import SimJob
    from repro.cluster.simulator import ClusterSimulator
    from repro.cluster.task import Task

__all__ = ["FaultPlan", "load_fault_plan", "default_chaos_plan"]


class FaultPlan:
    """An ordered set of injectors plus the seed and intensity dials.

    Parameters
    ----------
    injectors:
        The injectors, fired in list order at every hook.
    seed:
        Seed for the fault streams; ``None`` defers to the simulator's
        seed at bind time, so ``--seed`` reproduces fault runs end-to-end
        without repeating itself in the fault spec.
    intensity:
        Global rate multiplier (0 disables everything, 1 is nominal);
        swept by ``rush chaos``.
    """

    def __init__(self, injectors: Sequence[FaultInjector], *,
                 seed: Optional[int] = None,
                 intensity: float = 1.0) -> None:
        if intensity < 0.0:
            raise ConfigurationError(
                f"intensity must be >= 0, got {intensity}")
        for injector in injectors:
            if not isinstance(injector, FaultInjector):
                raise ConfigurationError(
                    f"not a FaultInjector: {injector!r}")
        self.injectors: List[FaultInjector] = list(injectors)
        self.seed = seed
        self.intensity = intensity
        self._ctx: Optional[FaultContext] = None
        self.log = FaultLog()

    # -- composition -------------------------------------------------------

    def scaled(self, intensity: float) -> "FaultPlan":
        """A fresh, unbound copy of this plan at a different intensity."""
        return FaultPlan([injector_from_spec(
            {"kind": i.kind, **i.params()}) for i in self.injectors],
            seed=self.seed, intensity=intensity)

    # -- wiring --------------------------------------------------------------

    def bind(self, sim: "ClusterSimulator", fallback_seed: int = 0) -> None:
        """Attach to a simulator: fresh log, fresh deterministic streams."""
        if self._ctx is not None:
            raise ConfigurationError(
                "FaultPlan is already bound to a simulator; build a fresh "
                "plan (or .scaled copy) per run")
        seed = self.seed if self.seed is not None else fallback_seed
        children = np.random.SeedSequence(seed).spawn(
            2 * max(len(self.injectors), 1))
        for k, injector in enumerate(self.injectors):
            injector.bind_rng(np.random.default_rng(children[2 * k]),
                              np.random.default_rng(children[2 * k + 1]))
            injector.reset()
        self.log = FaultLog()
        self._ctx = FaultContext(sim, self.log, self.intensity)

    @property
    def bound(self) -> bool:
        return self._ctx is not None

    # -- state ----------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """Every injector's streams and fields, plus the log."""
        return {"injectors": [i.state_dict() for i in self.injectors],
                "log": self.log.to_dicts()}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Take back :meth:`state_dict`'s output on a plan built from the
        same spec and bound to its simulator."""
        injectors = st.array(state["injectors"])
        if len(injectors) != len(self.injectors):
            raise ValueError(f"{len(injectors)} injector states for "
                             f"{len(self.injectors)} injectors")
        for injector, injector_state in zip(self.injectors, injectors):
            injector.load_state(st.mapping(injector_state))
        self.log.load_state(state["log"])

    # -- hook fan-out ---------------------------------------------------------

    def on_slot(self) -> None:
        assert self._ctx is not None, "FaultPlan used before bind()"
        for injector in self.injectors:
            injector.on_slot(self._ctx)

    def on_launch(self, job: "SimJob", task: "Task") -> None:
        assert self._ctx is not None, "FaultPlan used before bind()"
        for injector in self.injectors:
            injector.on_launch(self._ctx, job, task)

    def on_complete(self, job: "SimJob", task: "Task") -> None:
        assert self._ctx is not None, "FaultPlan used before bind()"
        for injector in self.injectors:
            injector.on_complete(self._ctx, job, task)

    # -- serialization ----------------------------------------------------------

    def to_spec(self) -> Dict[str, object]:
        """The JSON-compatible spec this plan round-trips through."""
        return {
            "seed": self.seed,
            "intensity": self.intensity,
            "injectors": [{"kind": i.kind, **i.params()}
                          for i in self.injectors],
        }

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        """Build a plan from its spec mapping (see module docstring)."""
        if not isinstance(spec, dict):
            raise ConfigurationError(
                f"fault spec must be a mapping, got {type(spec).__name__}")
        unknown = set(spec) - {"seed", "intensity", "injectors"}
        if unknown:
            raise ConfigurationError(
                f"unknown fault-spec keys: {sorted(unknown)}")
        raw = spec.get("injectors", [])
        if not isinstance(raw, list):
            raise ConfigurationError("'injectors' must be a list")
        seed = spec.get("seed")
        if seed is not None:
            seed = int(seed)
        return cls([injector_from_spec(entry) for entry in raw],
                   seed=seed, intensity=float(spec.get("intensity", 1.0)))

    @classmethod
    def default(cls, seed: Optional[int] = None) -> "FaultPlan":
        """The legacy behaviour: only per-spec task failures."""
        return cls([SpecFailureInjector()], seed=seed)


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Read a fault plan from a JSON spec file."""
    try:
        spec = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed fault spec {path}: {exc}") from None
    return FaultPlan.from_spec(spec)


def default_chaos_plan(seed: Optional[int] = None,
                       intensity: float = 1.0) -> FaultPlan:
    """The all-injector plan ``rush chaos`` sweeps when none is given.

    Moderate nominal rates: at intensity 1.0 a mid-size run sees a
    handful of each fault species without drowning in them.
    """
    return FaultPlan.from_spec({
        "seed": seed,
        "intensity": intensity,
        "injectors": [
            {"kind": "spec_failure"},
            {"kind": "container_crash", "rate": 0.004, "revoke_slots": 2},
            {"kind": "straggler", "rate": 0.01, "slowdown": 2.0},
            {"kind": "demand_burst", "rate": 0.005, "magnitude": 1.5,
             "width": 3},
            {"kind": "sample_corruption", "rate": 0.05, "low": 0.25,
             "high": 4.0},
            {"kind": "job_kill", "rate": 0.002},
            {"kind": "solver_budget", "rate": 0.01, "depth": 1},
        ],
    })
