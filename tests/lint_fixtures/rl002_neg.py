"""RL002 negative: monotonic clocks that time a stage are allowed."""
import time


def timed_stage(work) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started
