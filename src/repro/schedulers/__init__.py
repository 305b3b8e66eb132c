"""Pluggable scheduling policies for the cluster substrate."""

from typing import Callable, Dict, Tuple

from repro.schedulers.base import Scheduler
from repro.schedulers.capacity import CapacityScheduler
from repro.schedulers.edf import EdfScheduler
from repro.schedulers.fair import FairScheduler
from repro.schedulers.fifo import FifoScheduler
from repro.schedulers.rrh import RrhScheduler
from repro.schedulers.rush import RushScheduler

__all__ = [
    "Scheduler",
    "FifoScheduler",
    "EdfScheduler",
    "FairScheduler",
    "CapacityScheduler",
    "RrhScheduler",
    "RushScheduler",
    "POLICIES",
]

#: The one policy-name table (CLI, service and scenario library read
#: it): builder, plus the keyword options a JSON config — ``rush serve
#: --scheduler-options`` or a journal anchor — may set.  The
#: options are written out, not reflected from the constructors: they
#: are journaled with every commitment, so the surface is the paper's
#: theta, delta and Delta.
POLICIES: Dict[str, Tuple[Callable[..., Scheduler], Tuple[str, ...]]] = {
    "rush": (RushScheduler, ("delta", "theta", "tolerance")),
    "fifo": (FifoScheduler, ()),
    "edf": (EdfScheduler, ()),
    "fair": (FairScheduler, ()),
    "capacity": (CapacityScheduler, ()),
    "rrh": (RrhScheduler, ()),
}
