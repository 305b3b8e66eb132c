"""RL006 negative: failures re-raised or recorded for the ladder."""


def plan_round(planner, jobs, stats):
    try:
        return planner.plan(jobs)
    except RuntimeError:
        stats.fallback = "last_good"
        return None


def strict_round(planner, jobs):
    try:
        return planner.plan(jobs)
    except RuntimeError:
        raise


def ledger_round(planner, jobs, errors):
    try:
        return planner.plan(jobs)
    except RuntimeError as exc:
        errors.append(str(exc))
        return None
