"""Hold on to the jobs a simulator retires.

A completed or cancelled job is retired: the simulator drops its
:class:`~repro.cluster.job.SimJob` and keeps one outcome row.  A test that
inspects a finished job's attempts takes the ``SimJob`` as it retires,
from the scheduler's ``on_job_complete`` / ``on_job_cancelled`` hooks,
which receive it right after the simulator dropped it.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.cluster import ClusterSimulator, SimJob


def hold_retired(sim: ClusterSimulator,
                 check: Optional[Callable[[SimJob], None]] = None
                 ) -> Dict[str, SimJob]:
    """Every job ``sim`` retires from now on, by id, as it retires.

    ``check``, when given, is called with each job at that moment, before
    the scheduler's own hook runs.
    """
    held: Dict[str, SimJob] = {}
    scheduler = sim.scheduler
    for name in ("on_job_complete", "on_job_cancelled"):
        hook = getattr(scheduler, name)

        def holding(job: SimJob, hook=hook) -> None:
            held[job.job_id] = job
            if check is not None:
                check(job)
            hook(job)

        setattr(scheduler, name, holding)
    return held
