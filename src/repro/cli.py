"""Command-line interface for the RUSH reproduction.

The subcommands cover the workflow an operator would actually use:

``rush generate``
    Draw a Section V-B workload and freeze it to a JSON-lines trace.
``rush simulate``
    Replay a trace under one scheduling policy and print the outcome
    (optionally under an injected fault plan: ``--faults spec.json``;
    ``--span-trace``/``--metrics``/``--calibration`` switch on the
    repro.obs instruments for the run).
``rush compare``
    Run several policies over the same workload (the Figure 4/6 loop)
    and print the comparison tables.
``rush plan``
    One offline robust planning round over the jobs of a trace, printing
    the Figure 2 status table (optionally as HTML or JSON).
``rush chaos``
    Sweep a fault plan through a ladder of intensities and print the
    policy's utility/SLO degradation curve.
``rush ingest``
    Parse a Standard Workload Format (SWF) archive, map it onto job
    specs, and freeze the result as a JSON-lines trace.
``rush scenarios``
    The frozen scenario library: ``list`` the shipped scenarios,
    ``run`` one (or ``all``) as a seeded differential benchmark of RUSH
    against the baselines, with an optional per-scenario JSON artifact.
``rush lint``
    Run the rushlint static-analysis pass (domain invariants: seeded
    RNG streams, no wall clocks, float-equality discipline, ...) over a
    source tree; exit 0 means clean.
``rush serve``
    Run the asyncio scheduler daemon: job submit/cancel/query over
    HTTP, an NDJSON status stream, Prometheus ``/metrics``, and (with
    ``--journal-dir``) a write-ahead journal that survives a restart.
    With ``--smoke`` it instead runs the CI equivalence battery: replay a
    scenario through the HTTP API and diff the outcome digest against
    the simulator path.

Installed as the ``rush`` console script; also runnable as
``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from repro import obs
from repro.analysis.calibration import calibration_report
from repro.analysis.chaos import chaos_sweep
from repro.analysis.experiment import Experiment
from repro.analysis.report import format_table
from repro.core.planner import PlannerJob, RushPlanner
from repro.errors import ConfigurationError, ReproError
from repro.estimation.gaussian import GaussianEstimator
from repro.faults import FaultPlan, default_chaos_plan, load_fault_plan
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.schedulers import POLICIES
from repro.cluster.simulator import run_simulation
from repro.analysis.scenario import render_scenario_text, save_scenario_json
from repro.service import (RealTimeClock, ServiceConfig, ServiceDaemon,
                           ServiceEngine, open_journal, run_service_smoke,
                           tenants_from_dicts)
from repro.service.smoke import SMOKE_SCENARIO, run_crash_smoke
# ``restore_engine`` is no longer called here, but the perf ledger's
# tracer (benchmarks/ledger/tracing.py) rebinds it on this module by
# name, so the name stays until that tracer wraps layers, not symbols
# (ROADMAP 10(ii)).
from repro.service.snapshot import restore_engine  # noqa: F401
from repro.ui.status import (render_fault_text, render_profile_text,
                             render_status_html, render_status_text)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.scenarios import (DEFAULT_BASELINES, KNOWN_BASELINES,
                                      SCENARIOS, run_scenario)
from repro.workload.swf import SwfMapConfig, load_swf_workload
from repro.workload.trace import load_trace, save_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rush",
        description="RUSH robust scheduler reproduction (ICDCS 2016)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw a workload trace")
    gen.add_argument("--out", required=True, help="trace file to write")
    gen.add_argument("--jobs", type=int, default=100)
    gen.add_argument("--capacity", type=int, default=48)
    gen.add_argument("--ratio", type=float, default=1.5,
                     help="budget / benchmarked-runtime ratio")
    gen.add_argument("--interarrival", type=float, default=130.0)
    gen.add_argument("--time-scale", type=float, default=1.0)
    gen.add_argument("--failure-prob", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)

    simulate = sub.add_parser("simulate", help="replay a trace under one policy")
    simulate.add_argument("--trace", required=True)
    simulate.add_argument("--capacity", type=int, default=48)
    simulate.add_argument("--policy", choices=sorted(POLICIES),
                          default="rush")
    simulate.add_argument("--profile", action="store_true",
                          help="print the planner-cost profile after the "
                               "run (RUSH policy only)")
    simulate.add_argument("--seed", type=int, default=0,
                          help="failure-injection seed")
    simulate.add_argument("--faults",
                          help="JSON fault-plan spec to inject "
                               "(see repro.faults.plan)")
    simulate.add_argument("--intensity", type=float, default=None,
                          help="scale the fault plan's rates by this factor")
    simulate.add_argument("--max-slots", type=int, default=1_000_000,
                          help="slot cap; a run hitting it is reported as "
                               "censored")
    simulate.add_argument("--span-trace", metavar="PATH",
                          help="record solver spans and write them as "
                               "JSONL to PATH (slot-indexed, "
                               "deterministic)")
    simulate.add_argument("--metrics", action="store_true",
                          help="collect the repro.obs metrics registry "
                               "and print it (Prometheus text) after the "
                               "run")
    simulate.add_argument("--metrics-out", metavar="PATH",
                          help="also write the Prometheus metrics text "
                               "to PATH (implies --metrics collection)")
    simulate.add_argument("--calibration", action="store_true",
                          help="track predicted-vs-actual completions "
                               "and print the calibration report "
                               "(RUSH policy only)")

    compare = sub.add_parser("compare", help="run several policies and compare")
    compare.add_argument("--jobs", type=int, default=25)
    compare.add_argument("--capacity", type=int, default=8)
    compare.add_argument("--ratio", type=float, default=1.5)
    compare.add_argument("--interarrival", type=float, default=170.0)
    compare.add_argument("--time-scale", type=float, default=0.25)
    compare.add_argument("--failure-prob", type=float, default=0.0)
    compare.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    compare.add_argument("--policies", nargs="+",
                         choices=sorted(POLICIES),
                         default=["fifo", "edf", "rrh", "rush"])

    plan = sub.add_parser("plan", help="one offline robust planning round")
    plan.add_argument("--trace", required=True)
    plan.add_argument("--capacity", type=int, default=48)
    plan.add_argument("--theta", type=float, default=0.9)
    plan.add_argument("--delta", type=float, default=0.7)
    plan.add_argument("--html", help="also write the status page to this file")
    plan.add_argument("--json", dest="json_out",
                      help="also write the plan as JSON to this file")

    chaos = sub.add_parser(
        "chaos", help="sweep fault intensities and print degradation curves")
    chaos.add_argument("--trace", required=True)
    chaos.add_argument("--capacity", type=int, default=48)
    chaos.add_argument("--policy", choices=sorted(POLICIES),
                       default="rush")
    chaos.add_argument("--faults",
                       help="JSON fault-plan spec to sweep (default: the "
                            "built-in all-injector chaos plan)")
    chaos.add_argument("--intensities", type=float, nargs="+",
                       default=[0.0, 0.5, 1.0, 2.0],
                       help="fault-rate multipliers, one sweep point each")
    chaos.add_argument("--max-slots", type=int, default=20_000,
                       help="slot cap per sweep point (incomplete jobs are "
                            "censored at the cap)")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--out", help="write the sweep report JSON here")

    ingest = sub.add_parser(
        "ingest", help="parse an SWF archive into a JSON-lines trace")
    ingest.add_argument("--swf", required=True,
                        help="Standard Workload Format archive to parse")
    ingest.add_argument("--out", required=True, help="trace file to write")
    ingest.add_argument("--capacity", type=int, default=16,
                        help="simulated cluster width the jobs are scaled to")
    ingest.add_argument("--slot-seconds", type=float, default=60.0,
                        help="trace seconds per simulator slot")
    ingest.add_argument("--max-tasks", type=int, default=16,
                        help="cap on tasks per mapped job")
    ingest.add_argument("--ratio", type=float, default=2.0,
                        help="budget / benchmarked-runtime ratio")
    ingest.add_argument("--max-jobs", type=int, default=None,
                        help="keep only the first N mappable jobs")
    ingest.add_argument("--lenient", action="store_true",
                        help="skip malformed records and unknown header "
                             "directives instead of raising")

    scen = sub.add_parser(
        "scenarios", help="the frozen scenario library (list / run)")
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser("list", help="list the shipped scenarios")
    srun = scen_sub.add_parser(
        "run", help="run one scenario (or 'all') as a differential "
                    "benchmark of RUSH vs the baselines")
    srun.add_argument("name", choices=sorted(SCENARIOS) + ["all"])
    srun.add_argument("--seed", type=int, default=0)
    srun.add_argument("--full", action="store_true",
                      help="paper-scale variant (default: the fast CI "
                           "variant)")
    srun.add_argument("--baselines", nargs="+",
                      choices=sorted(KNOWN_BASELINES),
                      default=list(DEFAULT_BASELINES))
    srun.add_argument("--json", dest="json_out",
                      help="write the scenario's JSON artifact here "
                           "(single scenario only)")
    srun.add_argument("--out-dir",
                      help="write per-scenario JSON artifacts "
                           "<name>-<variant>-seed<N>.json into this "
                           "directory")

    lint = sub.add_parser(
        "lint", help="run the rushlint domain static-analysis pass")
    add_lint_arguments(lint)

    serve = sub.add_parser(
        "serve", help="run the asyncio scheduler daemon (HTTP API)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8350)
    serve.add_argument("--capacity", type=int, default=16)
    serve.add_argument("--policy",
                       choices=sorted(POLICIES), default="rush")
    serve.add_argument("--seed", type=int, default=0,
                       help="fault-stream seed")
    serve.add_argument("--slot-seconds", type=float, default=1.0,
                       help="wall seconds per scheduling slot")
    serve.add_argument("--manual", action="store_true",
                       help="no real-time clock: slots advance only "
                            "through POST /tick (deterministic mode)")
    serve.add_argument("--scheduler-options", metavar="JSON",
                       help="policy keyword options as a JSON object, "
                            'e.g. \'{"theta": 0.95}\'')
    serve.add_argument("--tenants", metavar="JSON",
                       help="tenant list as JSON, e.g. "
                            '\'[{"name": "a", "share": 0.5}, '
                            '{"name": "b", "share": 0.5}]\'')
    serve.add_argument("--chaos", action="store_true",
                       help="enable the /chaos fault-injection endpoints")
    serve.add_argument("--journal-dir", metavar="DIR",
                       help="durable write-ahead journal: every "
                            "submit/cancel/tick is fsynced to DIR before "
                            "it is applied, and an existing journal is "
                            "recovered (digest-verified) at boot")
    serve.add_argument("--crash-smoke", action="store_true",
                       help="run the crash-recovery smoke battery "
                            "instead of serving: boot a journaled "
                            "daemon, kill -9 it mid-stream, restart, "
                            "and diff the decision digest")
    serve.add_argument("--smoke", action="store_true",
                       help="run the CI equivalence battery instead of "
                            "serving: replay a scenario through the "
                            "HTTP API and diff digests vs the "
                            "simulator path")
    serve.add_argument("--scenario", default=SMOKE_SCENARIO,
                       choices=sorted(SCENARIOS),
                       help="scenario for --smoke")
    serve.add_argument("--full", action="store_true",
                       help="paper-scale --smoke variant")

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        n_jobs=args.jobs, capacity=args.capacity,
        mean_interarrival=args.interarrival, budget_ratio=args.ratio,
        time_scale=args.time_scale, failure_prob=args.failure_prob)
    specs = WorkloadGenerator(config, seed=args.seed).generate()
    save_trace(specs, args.out)
    total = sum(s.total_work for s in specs)
    print(f"wrote {len(specs)} jobs ({total} container-slots of work) "
          f"to {args.out}")
    return 0


def _build_fault_plan(args: argparse.Namespace,
                      default: Optional[FaultPlan] = None
                      ) -> Optional[FaultPlan]:
    """The fault plan a CLI run asked for, intensity applied; None = legacy."""
    plan = load_fault_plan(args.faults) if args.faults else default
    intensity = getattr(args, "intensity", None)
    if intensity is not None:
        if plan is None:
            plan = FaultPlan.default()
        plan = plan.scaled(intensity)
    return plan


def _cmd_simulate(args: argparse.Namespace) -> int:
    specs = load_trace(args.trace)
    policy = POLICIES[args.policy][0]()
    faults = _build_fault_plan(args)
    want_metrics = bool(args.metrics or args.metrics_out)
    want_obs = bool(args.span_trace or want_metrics or args.calibration)
    handle = None
    if want_obs:
        handle = obs.enable(trace=bool(args.span_trace),
                            metrics=want_metrics,
                            ledger=bool(args.calibration))
    try:
        result = run_simulation(specs, args.capacity, policy,
                                seed=args.seed, max_slots=args.max_slots,
                                faults=faults)
        return _report_simulate(args, result, policy, faults, handle)
    finally:
        if want_obs:
            obs.reset()


def _report_simulate(args: argparse.Namespace, result, policy,
                     faults: Optional[FaultPlan],
                     handle: Optional[obs.ObsHandle]) -> int:
    rows = [[r.job_id, r.sensitivity, r.arrival, r.runtime, r.latency,
             r.utility_value, "yes" if r.completed else "NO"]
            for r in result.records]
    print(format_table(
        ["job", "class", "arrived", "runtime", "latency", "utility",
         "completed"], rows, digits=1))
    print(f"\npolicy={result.scheduler_name}  "
          f"completed={result.completed_count}/{len(result.records)}  "
          f"utilization={result.utilization:.2f}  "
          f"task failures={result.task_failures}  "
          f"total utility={result.total_utility():.1f}")
    if faults is not None or result.timed_out:
        print("\n" + render_fault_text(result))
    if args.profile:
        profile = getattr(policy, "profile", None)
        if profile is None:
            print("\n--profile requires a planning policy "
                  f"(got {args.policy}); nothing to report")
        else:
            print("\n" + render_profile_text(profile()))
    if handle is not None:
        _report_obs(args, handle)
    return 0


def _report_obs(args: argparse.Namespace, handle: obs.ObsHandle) -> None:
    """Write/print the observability artifacts a simulate run asked for."""
    if args.span_trace:
        spans = obs.export.write_trace_jsonl(handle.tracer, args.span_trace)
        print(f"\nwrote {spans} spans to {args.span_trace}")
    if args.metrics_out:
        obs.export.write_metrics_text(handle.metrics, args.metrics_out)
        print(f"\nwrote metrics text to {args.metrics_out}")
    if args.metrics:
        print("\n" + handle.metrics.render_prometheus(), end="")
    if args.calibration:
        report = calibration_report(handle.ledger)
        if report.rows:
            print("\n" + report.summary_table())
        else:
            print("\n--calibration saw no completion predictions "
                  f"(policy {args.policy} does not plan); nothing to score")


def _cmd_compare(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        n_jobs=args.jobs, capacity=args.capacity,
        mean_interarrival=args.interarrival, budget_ratio=args.ratio,
        size_gb_range=(0.5, 2.0) if args.time_scale < 1.0 else (1.0, 10.0),
        time_scale=args.time_scale, failure_prob=args.failure_prob)
    experiment = Experiment(
        config=config,
        policies={name.upper(): POLICIES[name][0]
                  for name in args.policies},
        seeds=tuple(args.seeds))
    results = experiment.run()
    print(results.summary_table())
    ranking = results.lexicographic_ranking()
    print("\nlexicographic max-min ranking (best first): "
          + " > ".join(ranking))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    specs = load_trace(args.trace)
    planner = RushPlanner(capacity=args.capacity, theta=args.theta,
                          delta=args.delta)
    jobs: List[PlannerJob] = []
    for spec in specs:
        prior = spec.prior_runtime
        if prior is None:
            prior = float(sum(spec.task_durations)) / len(spec.task_durations)
        de = GaussianEstimator(prior_mean=prior, prior_std=0.3 * prior)
        jobs.append(PlannerJob(
            spec.job_id, spec.utility,
            de.estimate(pending_tasks=len(spec.task_durations))))
    plan = planner.plan(jobs)
    print(render_status_text(plan))
    if args.html:
        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_status_html(plan))
        print(f"\nwrote HTML status page to {args.html}")
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(plan.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote plan JSON to {args.json_out}")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    specs = load_trace(args.trace)
    plan = _build_fault_plan(args, default=default_chaos_plan(seed=args.seed))
    report = chaos_sweep(specs, args.capacity, POLICIES[args.policy][0], plan,
                         args.intensities, seed=args.seed,
                         max_slots=args.max_slots)
    print(report.summary_table())
    if args.out:
        report.save_json(args.out)
        print(f"\nwrote sweep report to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = SwfMapConfig(
        capacity=args.capacity, slot_seconds=args.slot_seconds,
        max_tasks=args.max_tasks, budget_ratio=args.ratio,
        max_jobs=args.max_jobs)
    specs = load_swf_workload(args.swf, config=config,
                              strict=not args.lenient)
    save_trace(specs, args.out)
    total = sum(s.total_work for s in specs)
    print(f"ingested {len(specs)} jobs ({total} container-slots of work) "
          f"from {args.swf} to {args.out}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenarios_command == "list":
        rows = []
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            rows.append([scenario.name, scenario.kind,
                         scenario.capacity_fast, scenario.capacity_full,
                         scenario.description])
        print(format_table(
            ["scenario", "kind", "cap (fast)", "cap (full)", "description"],
            rows))
        return 0
    names = sorted(SCENARIOS) if args.name == "all" else [args.name]
    if args.json_out and len(names) > 1:
        raise ReproError("--json takes a single scenario; "
                         "use --out-dir with 'all'")
    variant = "full" if args.full else "fast"
    for index, name in enumerate(names):
        outcome = run_scenario(name, seed=args.seed, fast=not args.full,
                               baselines=tuple(args.baselines))
        if index:
            print("\n" + "=" * 72 + "\n")
        print(render_scenario_text(outcome))
        if args.json_out:
            save_scenario_json(outcome, args.json_out)
            print(f"\nwrote scenario JSON to {args.json_out}")
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(
                args.out_dir, f"{name}-{variant}-seed{args.seed}.json")
            save_scenario_json(outcome, path)
            print(f"\nwrote scenario JSON to {path}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    if args.smoke:
        report = run_service_smoke(args.scenario, seed=args.seed,
                                   fast=not args.full)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.crash_smoke:
        report = run_crash_smoke(args.journal_dir, seed=args.seed)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0

    def parsed(flag: str, text: str) -> object:
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{flag} is not valid JSON: {exc}") from None

    options = parsed("--scheduler-options", args.scheduler_options) \
        if args.scheduler_options else {}
    tenants = tenants_from_dicts(parsed("--tenants", args.tenants)) \
        if args.tenants else ()
    config = ServiceConfig(capacity=args.capacity, policy=args.policy,
                           seed=args.seed, scheduler_options=options,
                           tenants=tenants)
    if not args.manual and not 0 < args.slot_seconds < math.inf:
        # NaN fails too; RealTimeClock would raise a bare ValueError.
        raise ConfigurationError(
            f"--slot-seconds must be finite and positive, "
            f"got {args.slot_seconds}")
    clock = None if args.manual else RealTimeClock(args.slot_seconds)
    durable = bool(args.journal_dir)

    async def _serve() -> None:
        if durable:
            engine, _writer = open_journal(args.journal_dir, config,
                                           clock=clock)
        else:
            engine = ServiceEngine(config, clock=clock)
        daemon = ServiceDaemon(engine, chaos=args.chaos)
        await daemon.start(args.host, args.port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        mode = "manual ticks" if args.manual \
            else f"{args.slot_seconds:g}s slots"
        extra = f", journal {args.journal_dir}" if durable else ""
        print(f"rush service on http://{args.host}:{daemon.port} "
              f"({args.policy}, capacity {args.capacity}, {mode}{extra}); "
              "Ctrl-C stops", flush=True)
        try:
            await stop.wait()  # serve until SIGTERM/SIGINT
        finally:
            # Graceful: drain in-flight requests, then flush+fsync the
            # journal inside engine.close() before the loop dies.
            await daemon.stop()

    # Enabled before the engine exists so journal recovery lands in the
    # registry /metrics serves.  No tracer and no completion ledger: the
    # daemon has no reader for either, so recording them would only grow
    # memory.
    obs.enable(trace=False, metrics=True, ledger=False)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0
    finally:
        obs.reset()  # on every exit path, a refused boot included
    print("stopped: drained and journal flushed" if durable
          else "stopped")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "simulate": _cmd_simulate,
    "compare": _cmd_compare,
    "plan": _cmd_plan,
    "chaos": _cmd_chaos,
    "ingest": _cmd_ingest,
    "scenarios": _cmd_scenarios,
    "lint": run_lint_command,
    "serve": _cmd_serve,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout piped into a pager/head that exited early; the
        # dup2 keeps the interpreter-shutdown flush from re-raising.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the shell convention
    except OSError as exc:
        # A trace, fault plan or output path that cannot be opened.
        where = f": {exc.filename}" if exc.filename is not None else ""
        print(f"error: {exc.strerror or exc}{where}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
