"""PUMA-like job templates.

The paper builds its workload from "an equal mix of eight heterogeneous
Hadoop job templates (Movie Classification, Histogram of Movies, Histogram
of Ratings, InvertedIndex, SelfJoin, SequenceCount, WordCount and Terabyte
Data Sorting) with multiple real-world data sets from the PUMA benchmark
suite" (Section V-B).  We do not have PUMA or its data sets, so each
template is a synthetic stand-in parameterized by

* ``tasks_per_gb`` — how many map-side tasks a gigabyte of input spawns,
* a per-task runtime distribution (truncated normal, in slots), and
* a small number of ``reduce_tasks`` whose runtime scales with input size.

The scheduler only ever observes task runtimes, so these profiles exercise
exactly the code paths the real benchmarks would; the heterogeneity across
templates (CPU-bound short tasks vs shuffle-heavy long tasks) is what the
randomized-runtime protocol of Section V-B actually relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["JobTemplate", "PUMA_TEMPLATES", "template_by_name"]


@dataclass(frozen=True)
class JobTemplate:
    """A synthetic stand-in for one PUMA benchmark application.

    ``mean_runtime``/``std_runtime`` describe the map-task runtime in
    slots; reduce tasks run ``reduce_factor`` times longer and their
    runtime additionally grows with the dataset size (shuffle volume).
    """

    name: str
    tasks_per_gb: float
    mean_runtime: float
    std_runtime: float
    reduce_tasks: int = 1
    reduce_factor: float = 2.0
    min_tasks: int = 4
    straggler_prob: float = 0.06
    straggler_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.tasks_per_gb <= 0:
            raise ConfigurationError(f"{self.name}: tasks_per_gb must be positive")
        if self.mean_runtime <= 0 or self.std_runtime < 0:
            raise ConfigurationError(f"{self.name}: bad runtime distribution")
        if self.reduce_tasks < 0 or self.min_tasks < 1:
            raise ConfigurationError(f"{self.name}: bad task counts")
        if not 0.0 <= self.straggler_prob < 1.0 or self.straggler_factor < 1.0:
            raise ConfigurationError(f"{self.name}: bad straggler model")

    def sample_tasks(self, size_gb: float, rng: np.random.Generator) -> List[int]:
        """Draw ground-truth task durations for a job of ``size_gb`` input.

        Map-task runtimes are truncated-normal draws (at least one slot),
        with a small fraction of *stragglers* running several times longer
        — the slow-task phenomenon endemic to shared Hadoop clusters that
        motivates the paper's robustness (Section I cites slow I/O and
        memory-availability variation).  Reduce tasks come last, scaled by
        the shuffle volume.
        """
        if size_gb <= 0:
            raise ConfigurationError(f"dataset size must be positive, got {size_gb}")
        n_map = max(self.min_tasks, int(round(self.tasks_per_gb * size_gb)))
        durations = rng.normal(self.mean_runtime, self.std_runtime, size=n_map)
        if self.straggler_prob > 0.0:
            stragglers = rng.random(n_map) < self.straggler_prob
            durations[stragglers] *= self.straggler_factor
        tasks = [max(1, int(round(d))) for d in durations]
        shuffle_scale = 1.0 + 0.1 * size_gb
        for _ in range(self.reduce_tasks):
            d = rng.normal(self.mean_runtime * self.reduce_factor * shuffle_scale,
                           self.std_runtime)
            tasks.append(max(1, int(round(d))))
        return tasks

    def benchmark_runtime(self, task_durations: List[int], capacity: int) -> int:
        """Runtime of the job with the whole cluster to itself.

        The paper benchmarks each job "with all the resources available in
        the cluster"; with homogeneous containers that is the makespan of
        a longest-processing-time-first packing onto ``capacity`` machines.
        """
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        loads = [0] * min(capacity, len(task_durations))
        if not loads:
            return 0
        for d in sorted(task_durations, reverse=True):
            k = loads.index(min(loads))
            loads[k] += d
        return max(loads)


#: The eight-template mix of Section V-B.  Runtime profiles are synthetic
#: but heterogeneous in the way the underlying applications are: indexing
#: and joining are shuffle-heavy with high variance, histograms are short
#: and regular, terasort is long and wide.
PUMA_TEMPLATES: Tuple[JobTemplate, ...] = (
    JobTemplate("movie-classification", tasks_per_gb=6, mean_runtime=75,
                std_runtime=18, reduce_tasks=1, reduce_factor=1.8),
    JobTemplate("histogram-movies", tasks_per_gb=8, mean_runtime=45,
                std_runtime=10, reduce_tasks=1, reduce_factor=1.5),
    JobTemplate("histogram-ratings", tasks_per_gb=8, mean_runtime=40,
                std_runtime=9, reduce_tasks=1, reduce_factor=1.5),
    JobTemplate("inverted-index", tasks_per_gb=10, mean_runtime=55,
                std_runtime=16, reduce_tasks=2, reduce_factor=2.2),
    JobTemplate("self-join", tasks_per_gb=12, mean_runtime=65,
                std_runtime=22, reduce_tasks=2, reduce_factor=2.5),
    JobTemplate("sequence-count", tasks_per_gb=10, mean_runtime=60,
                std_runtime=15, reduce_tasks=1, reduce_factor=2.0),
    JobTemplate("word-count", tasks_per_gb=9, mean_runtime=50,
                std_runtime=12, reduce_tasks=1, reduce_factor=1.8),
    JobTemplate("terasort", tasks_per_gb=14, mean_runtime=80,
                std_runtime=25, reduce_tasks=3, reduce_factor=2.0),
)

_BY_NAME: Dict[str, JobTemplate] = {t.name: t for t in PUMA_TEMPLATES}


def template_by_name(name: str) -> JobTemplate:
    """Look up one of the eight shipped templates by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ConfigurationError(f"unknown template {name!r}; known: {known}") from None
