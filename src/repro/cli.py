"""Command-line interface: ``rumor-repro`` / ``python -m repro``.

Subcommands:

* ``experiment {fig2, fig3, fig4ab, fig4c, all}`` — run a figure's
  pipeline, writing CSV/ASCII artifacts;
* ``threshold`` — compute r0 and the critical countermeasure surface for
  given rates on the Digg-compatible network;
* ``dataset`` — print the Digg2009(-compatible) network summary;
* ``presets list`` — enumerate the network presets a
  :class:`~repro.serve.spec.ScenarioSpec` may reference;
* ``serve`` — run the scenario query daemon (``docs/SERVICE.md``);
* ``obs {report, compare, validate, tail}`` — the telemetry
  consumption side: analyze a run manifest (``--trace <id>`` narrows
  to one request's path), diff two manifests or bench files with
  regression gating (nonzero exit on regression — the CI perf gate),
  validate a manifest's schema, or follow a growing manifest live.

Global observability flags (before the subcommand):

* ``--trace-out PATH`` — write a JSONL run manifest (see
  ``docs/OBSERVABILITY.md``) capturing solver stats, FBSM iteration
  traces, sweep task/worker telemetry, and experiment run framing;
* ``--log-level {debug,info,warning,error}`` — stderr threshold for
  structured log lines (default: warning);
* ``--progress`` — live progress lines for sweeps/ensembles;
* ``--profile-resources`` / ``--profile-phases`` — opt-in resource
  profiling (tracemalloc span peaks / per-phase cProfile), adding the
  ``repro-obs/2`` event types to the manifest.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="rumor-repro",
        description=("Reproduction of 'Modeling Propagation Dynamics and "
                     "Developing Optimized Countermeasures for Rumor "
                     "Spreading in Online Social Networks' (ICDCS 2015)"),
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="stderr threshold for structured log lines "
                             "(default: warning)")
    parser.add_argument("--trace-out", default=None, metavar="PATH",
                        help="write a JSONL run manifest to PATH "
                             "(schema repro-obs/3; see docs/OBSERVABILITY.md)")
    parser.add_argument("--progress", action="store_true",
                        help="show live progress lines for sweeps/ensembles")
    parser.add_argument("--profile-resources", action="store_true",
                        help="emit a resource event (tracemalloc peak, "
                             "peak RSS) for every span (repro-obs/2)")
    parser.add_argument("--profile-phases", action="store_true",
                        help="run experiment phases under cProfile and "
                             "emit profile events (repro-obs/2)")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a figure reproduction")
    exp.add_argument("id", choices=["fig2", "fig3", "fig4ab", "fig4c", "all"],
                     help="experiment to run")
    exp.add_argument("--out", default="results",
                     help="output directory (default: results)")
    exp.add_argument("--workers", type=int, default=None,
                     help="worker count for 'all' (default: serial; "
                          "N > 1 runs the figures concurrently)")
    exp.add_argument("--backend", default=None,
                     choices=["serial", "thread", "process"],
                     help="parallel backend for 'all' (default: serial, "
                          "or process when --workers > 1)")

    thr = sub.add_parser("threshold",
                         help="compute r0 and critical countermeasures")
    thr.add_argument("--alpha", type=float, default=0.01,
                     help="entering rate alpha (default 0.01)")
    thr.add_argument("--eps1", type=float, default=0.2,
                     help="immunization rate (default 0.2)")
    thr.add_argument("--eps2", type=float, default=0.05,
                     help="blocking rate (default 0.05)")

    data = sub.add_parser("dataset", help="print the dataset summary")
    data.add_argument("--friends-csv", default=None,
                      help="path to the real digg_friends.csv "
                           "(default: synthetic substitute)")

    rep = sub.add_parser("report",
                         help="decision-reference threshold report")
    rep.add_argument("--alpha", type=float, default=0.01)
    rep.add_argument("--eps1", type=float, default=0.2)
    rep.add_argument("--eps2", type=float, default=0.05)
    rep.add_argument("--preset", default=None,
                     choices=["twitter_like", "facebook_like", "forum_like"],
                     help="network preset (default: Digg2009-compatible)")

    plan = sub.add_parser("plan",
                          help="optimized countermeasure campaign (FBSM)")
    plan.add_argument("--tf", type=float, default=100.0,
                      help="deadline (default 100)")
    plan.add_argument("--initial-infected", type=float, default=0.05)
    plan.add_argument("--c1", type=float, default=5.0)
    plan.add_argument("--c2", type=float, default=10.0)
    plan.add_argument("--eps-max", type=float, default=1.0)
    plan.add_argument("--n-groups", type=int, default=20,
                      help="degree groups of the planning network")
    plan.add_argument("--r0", type=float, default=4.0,
                      help="uncontrolled severity at the (0.2, 0.05) "
                           "reference rates")

    presets = sub.add_parser(
        "presets", help="discover ScenarioSpec network presets")
    presets_sub = presets.add_subparsers(dest="presets_command",
                                         required=True)
    presets_sub.add_parser(
        "list", help="list preset names with degree-distribution summaries")

    serve = sub.add_parser(
        "serve", help="run the scenario query daemon (see docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8722,
                       help="bind port; 0 picks an ephemeral port, "
                            "announced on stdout (default 8722)")
    serve.add_argument("--batch-window", type=float, default=0.01,
                       metavar="SECONDS",
                       help="micro-batching window: the longest a "
                            "cache-missing request waits for compatible "
                            "company; a window closes sooner once no "
                            "request has arrived for a tenth of it "
                            "(default 0.01)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="dispatch a window early at this many requests "
                            "(default 64)")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       help="in-memory result-cache capacity (default 1024)")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist results as DIR/<hash>.json blobs "
                            "(default: memory only)")
    serve.add_argument("--status-interval", type=float, default=None,
                       metavar="SECONDS",
                       help="log a one-line serve.status record (health "
                            "+ SLO window) every SECONDS — visible at "
                            "--log-level info, always in the manifest "
                            "(default: off)")

    obs = sub.add_parser(
        "obs", help="analyze run manifests and bench files")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="timing/convergence report for one run manifest")
    obs_report.add_argument("manifest", help="JSONL run manifest path")
    obs_report.add_argument("--width", type=int, default=40,
                            help="bar chart width (default 40)")
    obs_report.add_argument("--trace", default=None, metavar="ID",
                            help="show only the events carrying this "
                                 "trace id (an X-Trace-Id value) instead "
                                 "of the full report")
    obs_compare = obs_sub.add_parser(
        "compare", help="diff two manifests or two BENCH_*.json files; "
                        "exits 1 on regression or shape drift")
    obs_compare.add_argument("a", help="baseline manifest/bench file")
    obs_compare.add_argument("b", help="candidate manifest/bench file")
    obs_compare.add_argument("--wall-rtol", type=float, default=None,
                             help="relative wall-time regression "
                                  "threshold (default 0.25)")
    obs_compare.add_argument("--nfev-rtol", type=float, default=None,
                             help="relative solver-nfev threshold "
                                  "(default 0.01)")
    obs_compare.add_argument("--warn-only", action="store_true",
                             help="downgrade timing/metric regressions to "
                                  "warnings (shape drift still fails) — "
                                  "for shared CI runners")
    obs_validate = obs_sub.add_parser(
        "validate", help="validate a manifest against repro-obs/1|2|3; "
                         "exit 0/1")
    obs_validate.add_argument("manifest", help="JSONL run manifest path")
    obs_tail = obs_sub.add_parser(
        "tail", help="render a manifest's events as one-line records, "
                     "following growth with --follow (truncation-"
                     "tolerant; stops at manifest_end)")
    obs_tail.add_argument("manifest", help="JSONL run manifest path")
    obs_tail.add_argument("--follow", "-f", action="store_true",
                          help="keep polling for appended events instead "
                               "of stopping at end of file")
    obs_tail.add_argument("--interval", type=float, default=0.5,
                          metavar="SECONDS",
                          help="poll period in follow mode (default 0.5)")
    obs_tail.add_argument("--max-events", type=int, default=None,
                          metavar="N",
                          help="stop after rendering N events")
    obs_tail.add_argument("--types", default=None, metavar="T1,T2",
                          help="comma-separated event types to render "
                               "(e.g. health,slo,log); default: all")
    return parser


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_all, run_experiment
    from repro.parallel import resolve_executor

    if args.id == "all":
        executor = resolve_executor(args.backend, args.workers)
        reports = run_all(args.out, executor=executor)
    else:
        reports = [run_experiment(args.id, args.out)]
    for report in reports:
        print(report.summary)
        for artifact in report.artifacts:
            print(f"  wrote {artifact}")
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    from repro.core import (
        basic_reproduction_number,
        critical_eps1,
        critical_eps2,
    )
    from repro.serve.spec import ScenarioSpec, scenario_parameters

    spec = ScenarioSpec(network="digg2009", alpha=args.alpha,
                        eps1=args.eps1, eps2=args.eps2)
    params = scenario_parameters(spec)
    r0 = basic_reproduction_number(params, args.eps1, args.eps2)
    verdict = "EXTINCT (r0 <= 1)" if r0 <= 1 else "SPREADING (r0 > 1)"
    print(f"r0 = {r0:.6f}  ->  {verdict}")
    print(f"critical eps2 given eps1={args.eps1}: "
          f"{critical_eps2(params, args.eps1):.6f}")
    print(f"critical eps1 given eps2={args.eps2}: "
          f"{critical_eps1(params, args.eps2):.6f}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets import load_digg2009, synthesize_digg2009
    from repro.networks import summarize_distribution

    if args.friends_csv:
        dataset = load_digg2009(args.friends_csv)
    else:
        dataset = synthesize_digg2009()
    summary = summarize_distribution(dataset.distribution, dataset.n_users)
    print(f"source: {dataset.source}")
    for key, value in summary.as_dict().items():
        print(f"  {key}: {value}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis import threshold_report
    from repro.serve.spec import ScenarioSpec, scenario_parameters

    spec = ScenarioSpec(network=args.preset or "digg2009", alpha=args.alpha,
                        eps1=args.eps1, eps2=args.eps2)
    params = scenario_parameters(spec)
    print(threshold_report(params, args.eps1, args.eps2))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis import campaign_report
    from repro.control import (
        ControlBounds,
        CostParameters,
        solve_optimal_control,
    )
    from repro.core import (
        RumorModelParameters,
        SIRState,
        calibrate_acceptance_scale,
    )
    from repro.networks import power_law_distribution

    distribution = power_law_distribution(1, args.n_groups, 2.0)
    params = RumorModelParameters(distribution, alpha=0.01)
    params = calibrate_acceptance_scale(params, 0.2, 0.05, args.r0)
    initial = SIRState.initial(params.n_groups, args.initial_infected)
    result = solve_optimal_control(
        params, initial, t_final=args.tf,
        bounds=ControlBounds(args.eps_max, args.eps_max),
        costs=CostParameters(args.c1, args.c2),
        n_grid=201,
    )
    print(campaign_report(result))
    return 0


def _cmd_presets(args: argparse.Namespace) -> int:
    from repro.datasets.presets import preset_summaries

    for entry in preset_summaries():
        print(f"{entry['name']}: {entry['description']}")
        print(f"  source: {entry['source']}  users: {entry['n_users']}")
        for key, value in entry["summary"].items():
            print(f"  {key}: {value}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import run_server

    return run_server(args.host, args.port,
                      window_seconds=args.batch_window,
                      max_batch=args.max_batch,
                      cache_entries=args.cache_entries,
                      cache_dir=args.cache_dir,
                      status_interval=args.status_interval)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.exceptions import ParameterError

    try:
        if args.obs_command == "report":
            if args.trace is not None:
                from repro.obs.reader import load_manifest
                from repro.obs.report import trace_report_text

                print(trace_report_text(load_manifest(args.manifest),
                                        args.trace))
                return 0
            from repro.obs.report import render_report

            print(render_report(args.manifest, width=args.width))
            return 0
        if args.obs_command == "tail":
            from repro.obs.tail import tail_manifest

            types = (tuple(t for t in args.types.split(",") if t)
                     if args.types else None)
            tail_manifest(args.manifest, follow=args.follow,
                          interval=args.interval,
                          max_events=args.max_events, types=types)
            return 0
        if args.obs_command == "compare":
            from repro.obs.compare import (
                DEFAULT_NFEV_RTOL,
                DEFAULT_WALL_RTOL,
                compare_paths,
            )

            wall_rtol = (args.wall_rtol if args.wall_rtol is not None
                         else DEFAULT_WALL_RTOL)
            nfev_rtol = (args.nfev_rtol if args.nfev_rtol is not None
                         else DEFAULT_NFEV_RTOL)
            comparison = compare_paths(args.a, args.b, wall_rtol=wall_rtol,
                                       nfev_rtol=nfev_rtol)
            print(comparison.text(warn_only=args.warn_only))
            return comparison.exit_code(warn_only=args.warn_only)
        # validate
        from repro.obs.events import validate_manifest

        events = validate_manifest(args.manifest)
        print(f"{args.manifest}: valid "
              f"({events[0]['schema']}, {len(events)} events)")
        return 0
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    from repro.obs.log import set_level
    from repro.obs.trace import new_trace_id, observing, tracing

    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "threshold": _cmd_threshold,
        "dataset": _cmd_dataset,
        "report": _cmd_report,
        "plan": _cmd_plan,
        "presets": _cmd_presets,
        "serve": _cmd_serve,
        "obs": _cmd_obs,
    }
    set_level(args.log_level)
    serve = args.command == "serve"
    wants_observer = (serve or args.trace_out is not None or args.progress
                      or args.profile_resources or args.profile_phases)
    if args.command == "obs" or not wants_observer:
        return handlers[args.command](args)
    run_info = {"command": args.command, "argv": list(argv or sys.argv[1:])}
    run_trace = new_trace_id()
    run_info["trace_id"] = run_trace
    sink = None
    if serve and args.trace_out is None:
        # The daemon always runs observed, so GET /metrics counts, but
        # without a manifest it drops its events rather than keep them
        # in memory for its whole life.
        from repro.obs.manifest import NullSink
        sink = NullSink()
    with observing(args.trace_out, progress=args.progress, run=run_info,
                   sink=sink, resources=args.profile_resources,
                   profile=args.profile_phases):
        # Run-scoped trace id: every event the run emits carries it, so
        # `repro obs report --trace <id>` can reconstruct a whole run the
        # same way it reconstructs one serve request.
        with tracing(run_trace):
            return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - module execution path
    sys.exit(main())
