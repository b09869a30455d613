"""``repro suite`` and ``repro sweep``: batch execution front-ends.

``suite`` fans the experiment index (E01–E26) across worker processes
and writes one merged run manifest; ``sweep`` expands a declarative
parameter grid for a single scenario.  Both run through
:mod:`repro.exec.campaign`, share its executor flags (``-j``,
``--cache-dir``/``--no-cache``, ``--timeout``, ``--retries``) and
exit non-zero when any task fails.
"""

from __future__ import annotations

import argparse
from typing import Any, Sequence

from repro.analysis import format_table
from repro.exec import campaign
from repro.exec.pool import ExecResult
from repro.exec.registry import all_scenarios
from repro.exec.spec import parse_assignments, parse_value
from repro.exec.suite import experiment_ids, suite_specs, sweep_specs


def add_suite_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on every simulated horizon "
                             "(default 1.0)")
    parser.add_argument("--experiments", default="",
                        help="comma-separated experiment ids (e.g. "
                             "E01,E19); default: all")
    parser.add_argument("--manifest", default="repro_suite.manifest.json",
                        help="merged run manifest path; '' to skip")
    parser.add_argument("--assert-cached", action="store_true",
                        help="fail unless every task was served from "
                             "the cache (CI second-pass check)")
    parser.add_argument("--record-bench", default="",
                        help="merge suite wall/cache numbers into this "
                             "BENCH_perf.json-style report")
    parser.add_argument("--health", action="store_true",
                        help="aggregate per-task HealthReports "
                             "(conservation, queue bounds, ε-band "
                             "convergence) and exit non-zero on any "
                             "violated verdict")
    campaign.add_executor_arguments(parser)


def add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True,
                        help="registered scenario name (see "
                             "`repro suite --list-scenarios`); e.g. "
                             "atm.staggered")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=V1,V2,...",
                        help="sweep axis; dotted keys reach nested "
                             "params (algorithm_params.interval=1e-3,"
                             "2e-3); repeatable — axes form a cartesian "
                             "product")
    parser.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="fixed",
                        help="fixed (non-swept) parameter; repeatable")
    parser.add_argument("--probe", action="append", default=[],
                        metavar="NAME",
                        help="probe series to return per task "
                             "(repeatable)")
    campaign.add_executor_arguments(parser)


def _print_health(merged: dict[str, Any]) -> None:
    print()
    print(format_table(
        ["check", "pass", "violated", "n/a"],
        [[name, counts["pass"], counts["violated"],
          counts["not-applicable"]]
         for name, counts in sorted(merged["checks"].items())]))
    print(f"\nhealth: {merged['verdict']} across {merged['runs']} "
          "run(s)")
    for run_id, bad in sorted(merged["violated"].items()):
        print(f"  VIOLATED {run_id}: {', '.join(bad)}")


def run_suite_command(args: argparse.Namespace) -> int:
    experiments = [e for e in args.experiments.split(",") if e] or None
    try:
        specs = suite_specs(scale=args.scale, seed=args.seed,
                            experiments=experiments)
    except ValueError as exc:
        raise SystemExit(f"repro suite: {exc}") from exc
    run = campaign.run("suite", specs, args)
    run.print_results()
    run.summarise()

    status = 0 if run.ok else 1
    if args.assert_cached and not run.check_cached():
        status = 1
    merged_health = None
    if args.health:
        merged_health = run.health()
        if merged_health is None:
            print("\n--health: no per-task health reports to aggregate")
            status = 1
        else:
            _print_health(merged_health)
            if merged_health["verdict"] == "violated":
                status = 1

    if args.output:
        run.write_report(args.output, scale=args.scale, seed=args.seed)
    if args.manifest:
        run.write_manifest(
            args.manifest,
            params={"scale": args.scale,
                    "experiments": experiments or experiment_ids()},
            seed=args.seed,
            metrics={f"{r.spec.task_id}.{key}": value
                     for r in run.results if r.ok
                     for key, value in sorted(r.payload["metrics"].items())},
            health=merged_health)
    if args.record_bench:
        run.record_bench(args.record_bench, f"j{run.jobs}",
                         scale=args.scale, tasks=len(run.results))
    return status


def _axis_values(text: str) -> list[Any]:
    return [parse_value(value) for value in text.split(",")]


def run_sweep_command(args: argparse.Namespace) -> int:
    known = all_scenarios()
    if args.scenario not in known:
        raise SystemExit(f"unknown scenario {args.scenario!r}; known: "
                         f"{', '.join(sorted(known))}")
    axes = parse_assignments(args.param, "--param", convert=_axis_values,
                             nest=False)
    if not axes:
        raise SystemExit("sweep needs at least one --param axis")
    base = parse_assignments(args.fixed, "--set")
    specs = sweep_specs(args.scenario, axes, base=base, seed=args.seed,
                        probes=tuple(args.probe))
    run = campaign.run("sweep", specs, args)
    run.print_results()
    _print_sweep_metrics(run.results)
    run.summarise()
    if args.output:
        run.write_report(args.output, scenario=args.scenario,
                         seed=args.seed, grid=axes, base=base)
    return 0 if run.ok else 1


#: Compact cross-kind metric columns for the sweep table.
_SWEEP_METRICS = ("jain", "utilization", "total_goodput", "queue.max",
                  "queue.mean")


def _print_sweep_metrics(results: Sequence[ExecResult]) -> None:
    ok = [r for r in results if r.ok]
    if not ok:
        return
    columns = [m for m in _SWEEP_METRICS
               if any(m in r.payload["metrics"] for r in ok)]
    rows = []
    for result in ok:
        metrics = result.payload["metrics"]
        rows.append([result.spec.task_id]
                    + [metrics.get(m, "") for m in columns])
    print()
    print(format_table(["task"] + list(columns), rows))
