"""Command-line interface: run any of the paper's configurations.

Examples::

    python -m repro list
    python -m repro atm --scenario staggered --algorithm phantom
    python -m repro atm --scenario onoff --algorithm capc --duration 0.5
    python -m repro tcp --scenario rtt --policy selective-discard
    python -m repro maxmin --link l1=150 --link l2=150 \\
        --session long=l1,l2 --session s1=l1 --factor 5
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Sequence

from repro.analysis import format_table, jain_index, print_series
from repro.baselines import (AprcAlgorithm, CapcAlgorithm, EprcaAlgorithm,
                             EricaAlgorithm)
from repro.configs import NAMED, ONOFF_SEED, PAPER
from repro.core import (BinaryPhantomAlgorithm, PhantomAlgorithm,
                        max_min_allocation)
from repro.exec import cli as exec_cli
from repro.exec.registry import all_scenarios
from repro.exec.spec import parse_assignments
from repro.fluid import cli as fluid_cli
from repro.fuzz import cli as fuzz_cli
from repro.lint import cli as lint_cli
from repro.obs import cli as obs_cli
from repro.obs.cli import write_obs_artifacts
from repro.scenarios import (drop_tail_policy, many_flows, mixed_stacks,
                             rtt_fairness, selective_discard_policy,
                             selective_efci_policy, selective_quench_policy,
                             selective_red_policy, tcp_parking_lot,
                             vegas_thresholds)
from repro.scenarios.generic import build_atm
from repro.serve import cli as serve_cli

ATM_ALGORITHMS = {
    "phantom": PhantomAlgorithm,
    "phantom-binary": BinaryPhantomAlgorithm,
    "eprca": EprcaAlgorithm,
    "aprc": AprcAlgorithm,
    "capc": CapcAlgorithm,
    "erica": EricaAlgorithm,
}

#: ``--scenario`` name -> named configuration (repro.configs);
#: the parking lot keeps its historical flag name.
ATM_SCENARIOS = {"parking-lot" if name == "parking" else name: name
                 for name in PAPER}

TCP_POLICIES = {
    "drop-tail": drop_tail_policy,
    "selective-discard": selective_discard_policy,
    "quench": selective_quench_policy,
    "efci": selective_efci_policy,
    "selective-red": selective_red_policy,
}

TCP_SCENARIOS = {
    "rtt": rtt_fairness,
    "parking-lot": tcp_parking_lot,
    "many": many_flows,
    "vegas": vegas_thresholds,
    "mixed": mixed_stacks,
}


def _cmd_list(_args: argparse.Namespace) -> int:
    print("ATM scenarios :", ", ".join(sorted(ATM_SCENARIOS)))
    print("ATM algorithms:", ", ".join(sorted(ATM_ALGORITHMS)))
    print("TCP scenarios :", ", ".join(sorted(TCP_SCENARIOS)))
    print("TCP policies  :", ", ".join(sorted(TCP_POLICIES)))
    # the registry names are the valid `scenario` values for both
    # `repro suite/sweep` and the serve API's POST /jobs
    print("exec scenarios:", ", ".join(all_scenarios()))
    return 0


#: Registry-equivalent scenario names (repro.exec.entries) for the
#: CLI's flag-level names, so the HealthReport's oracle gating judges
#: `repro atm/tcp` runs exactly like `repro suite` tasks.
HEALTH_SCENARIOS = {
    "atm": {flag: f"atm.{name}" for flag, name in ATM_SCENARIOS.items()},
    "tcp": {"rtt": "tcp.rtt", "parking-lot": "tcp.parking",
            "many": "tcp.many", "vegas": "tcp.vegas",
            "mixed": "tcp.mixed"},
}


def _cmd_atm(args: argparse.Namespace) -> int:
    algorithm = ATM_ALGORITHMS[args.algorithm]
    kwargs = {"duration": args.duration}
    if args.scenario == "staggered" and args.sessions is not None:
        kwargs["n_sessions"] = args.sessions
    # only the on/off configuration draws random numbers, so --seed is
    # recorded for it alone; the others run the same under any seed
    seed = args.seed if args.scenario == "onoff" else None
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
    config = NAMED[ATM_SCENARIOS[args.scenario]](**kwargs)
    # wall-clock read is the measurement itself (CLI layer, not
    # simulation code); the simulated outcome stays deterministic
    start = time.perf_counter()  # lint: disable=DET002
    run = build_atm(config, algorithm_factory=algorithm,
                    seed=ONOFF_SEED if seed is None else seed,
                    tracer=tracer)
    wall_s = time.perf_counter() - start  # lint: disable=DET002

    series = {f"ACR {vc} [Mb/s]": s.acr_probe
              for vc, s in run.net.sessions.items()}
    if run.macr_probe is not None:
        series["MACR [Mb/s]"] = run.macr_probe
    series["queue [cells]"] = run.queue_probe
    print_series(f"{args.scenario} under {args.algorithm}", series,
                 start=0.0, end=args.duration)

    rates = run.steady_rates()
    queue = run.queue_stats()
    print()
    print(format_table(
        ["session", "steady rate Mb/s"],
        [[vc, rate] for vc, rate in sorted(rates.items())]))
    print()
    print(f"Jain index : {jain_index(rates.values()):.4f}")
    print(f"utilisation: {run.utilization():.3f}")
    print(f"queue      : peak {queue['max']:.0f}, "
          f"mean {queue['mean']:.1f} cells")
    params = {"scenario": args.scenario, "algorithm": args.algorithm,
              "duration": args.duration}
    if args.sessions is not None:
        params["sessions"] = args.sessions
    write_obs_artifacts("atm", params, run, tracer, wall_s, args.trace,
                        args.manifest, seed=seed,
                        health_scenario=HEALTH_SCENARIOS["atm"][args.scenario])
    return 0


def _cmd_tcp(args: argparse.Namespace) -> int:
    policy = TCP_POLICIES[args.policy]
    scenario = TCP_SCENARIOS[args.scenario]
    kwargs = {"duration": args.duration}
    tracer = None
    if args.trace:
        from repro.obs import Tracer
        tracer = Tracer()
        kwargs["tracer"] = tracer
    # wall-clock read is the measurement itself (CLI layer); see _cmd_atm
    start = time.perf_counter()  # lint: disable=DET002
    run = scenario(policy(), **kwargs)
    wall_s = time.perf_counter() - start  # lint: disable=DET002

    rates = run.goodputs()
    print(format_table(
        ["flow", "goodput Mb/s"],
        [[f, r] for f, r in sorted(rates.items())]))
    print()
    print(f"Jain index  : {jain_index(rates.values()):.4f}")
    print(f"total       : {run.total_goodput():.2f} Mb/s")
    print(f"bottleneck q: peak {run.queue_stats()['max']:.0f}, "
          f"mean {run.queue_stats()['mean']:.1f} packets")
    params = {"scenario": args.scenario, "policy": args.policy,
              "duration": args.duration}
    write_obs_artifacts("tcp", params, run, tracer, wall_s,
                        args.trace, args.manifest,
                        health_scenario=HEALTH_SCENARIOS["tcp"]
                        [args.scenario])
    return 0


def _cmd_maxmin(args: argparse.Namespace) -> int:
    capacities = parse_assignments(args.link, "--link", convert=float,
                                   nest=False)
    routes = parse_assignments(args.session, "--session",
                               convert=lambda links: links.split(","),
                               nest=False)
    weight = 1.0 / args.factor if args.factor else 0.0
    rates = max_min_allocation(capacities, routes, phantom_weight=weight)
    label = (f"phantom max-min (f={args.factor})" if args.factor
             else "classic max-min")
    print(format_table(["session", f"{label} rate"],
                       [[s, r] for s, r in sorted(rates.items())]))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro import perf

    report = perf.run_suite(args.workload or None, scale=args.scale,
                            repeats=args.repeats)
    rows = [[name, entry["wall_s"], entry["wall_per_sim_sec"],
             entry["events_per_sec"], entry["cells_per_sec"]]
            for name, entry in sorted(report["workloads"].items())]
    print(format_table(
        ["workload", "wall s", "wall/sim-s", "events/s", "cells/s"], rows))

    status = 0
    if args.check:
        try:
            baseline = perf.read_report(args.baseline)
        except FileNotFoundError:
            print(f"\nno baseline at {args.baseline!r}; nothing to check "
                  "against")
            return 1
        mismatches = perf.environment_mismatches(report, baseline)
        if mismatches:
            print(f"\nwarning: {args.baseline} was captured in a "
                  "different environment; wall-clock comparisons are "
                  "cross-machine:")
            for mismatch in mismatches:
                print(f"  {mismatch}")
        problems = perf.check_regression(report, baseline,
                                         factor=args.factor)
        if problems:
            print("\nperf regression against "
                  f"{args.baseline} (factor {args.factor:g}):")
            for problem in problems:
                print(f"  {problem}")
            status = 1
        else:
            print(f"\nwithin {args.factor:g}x of the {args.baseline} "
                  "baseline")
    if args.record:
        try:
            committed = perf.read_report(args.baseline)
        except (OSError, ValueError):
            committed = None
        if committed is not None:
            drifts = perf.history_drift(report, committed)
            if drifts:
                print(f"\nwarning: wall/sim-sec drift beyond "
                      f"{perf.HISTORY_WARN_FACTOR:g}x of "
                      f"{args.baseline}:")
                for drift in drifts:
                    print(f"  {drift}")
        entry = perf.append_history(args.history, report)
        print(f"\nrecorded {len(entry['workloads'])} workload(s) in "
              f"{args.history}")
    if args.output:
        perf.record_bench(args.output, "workloads", report["workloads"],
                          stamp={"python": report["python"],
                                 "machine": report["machine"]})
        print(f"\nwrote {args.output}")
        # companion run manifest, so every benchmark number carries its
        # provenance (parameters, git rev, platform)
        from repro import obs

        metrics = {f"{name}.{key}": value
                   for name, entry in sorted(report["workloads"].items())
                   for key, value in sorted(entry.items())
                   if isinstance(value, (int, float))}
        manifest = obs.build_manifest(
            command="perf",
            params={"workload": sorted(report["workloads"]),
                    "scale": args.scale, "repeats": args.repeats},
            metrics=metrics)
        manifest_path = os.path.splitext(args.output)[0] + ".manifest.json"
        obs.write_manifest(manifest_path, manifest)
        print(f"wrote {manifest_path}")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Phantom flow-control reproduction (SIGCOMM 1996)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list scenarios, algorithms, policies"
                   ).set_defaults(fn=_cmd_list)

    atm = sub.add_parser("atm", help="run an ATM scenario")
    atm.add_argument("--scenario", choices=sorted(ATM_SCENARIOS),
                     default="staggered")
    atm.add_argument("--algorithm", choices=sorted(ATM_ALGORITHMS),
                     default="phantom")
    atm.add_argument("--duration", type=float, default=0.3)
    atm.add_argument("--sessions", type=int, default=None,
                     help="session count (staggered scenario only)")
    atm.add_argument("--seed", type=int, default=None,
                     help="RNG seed (onoff scenario only)")
    atm.add_argument("--trace", default="",
                     help="record a JSONL trace to this path (enables "
                          "tracing; see docs/OBSERVABILITY.md)")
    atm.add_argument("--manifest", default="repro_atm.manifest.json",
                     help="run manifest path; '' to skip")
    atm.set_defaults(fn=_cmd_atm)

    tcp = sub.add_parser("tcp", help="run a TCP scenario")
    tcp.add_argument("--scenario", choices=sorted(TCP_SCENARIOS),
                     default="rtt")
    tcp.add_argument("--policy", choices=sorted(TCP_POLICIES),
                     default="selective-discard")
    tcp.add_argument("--duration", type=float, default=20.0)
    tcp.add_argument("--trace", default="",
                     help="record a JSONL trace to this path (enables "
                          "tracing; see docs/OBSERVABILITY.md)")
    tcp.add_argument("--manifest", default="repro_tcp.manifest.json",
                     help="run manifest path; '' to skip")
    tcp.set_defaults(fn=_cmd_tcp)

    maxmin = sub.add_parser(
        "maxmin", help="compute a (phantom) max-min allocation")
    maxmin.add_argument("--link", action="append", required=True,
                        metavar="NAME=CAPACITY")
    maxmin.add_argument("--session", action="append", required=True,
                        metavar="NAME=LINK1,LINK2,...")
    maxmin.add_argument("--factor", type=float, default=None,
                        help="utilization factor; omit for classic max-min")
    maxmin.set_defaults(fn=_cmd_maxmin)

    lint = sub.add_parser(
        "lint", help="statically check determinism, unit-safety, and "
                     "sim-API invariants (see docs/LINTING.md)")
    lint_cli.add_arguments(lint)
    lint.set_defaults(fn=lint_cli.run_from_args)

    perf = sub.add_parser(
        "perf", help="measure hot-path throughput and refresh "
                     "BENCH_perf.json (see docs/PERFORMANCE.md)")
    perf.add_argument("--workload", action="append", default=None,
                      help="workload name (repeatable; default: all)")
    perf.add_argument("--scale", type=float, default=1.0,
                      help="multiplier on each workload's simulated "
                           "horizon (default 1.0)")
    perf.add_argument("--repeats", type=int, default=1,
                      help="best-of-N wall-time measurement (default 1)")
    perf.add_argument("--output", default="BENCH_perf.json",
                      help="report file to write; use '' to skip writing")
    perf.add_argument("--check", action="store_true",
                      help="fail (exit 1) on wall/sim-sec regression "
                           "against --baseline")
    perf.add_argument("--baseline", default="BENCH_perf.json",
                      help="baseline report for --check")
    perf.add_argument("--factor", type=float, default=2.0,
                      help="allowed wall/sim-sec regression factor "
                           "(default 2.0)")
    perf.add_argument("--record", action="store_true",
                      help="append this measurement to --history and "
                           "warn (without failing) on >20%% wall/sim-sec "
                           "drift against --baseline")
    perf.add_argument("--history", default="BENCH_history.jsonl",
                      help="append-only measurement log for --record")
    perf.set_defaults(fn=_cmd_perf)

    obs = sub.add_parser(
        "obs", help="record, inspect, convert, and diff traces and run "
                    "manifests (see docs/OBSERVABILITY.md)")
    obs_cli.add_arguments(obs)
    obs.set_defaults(fn=obs_cli.run)

    fluid = sub.add_parser(
        "fluid", help="run, validate, and benchmark the fluid/hybrid "
                      "simulation tier (see docs/FLUID.md)")
    fluid_cli.add_arguments(fluid)
    fluid.set_defaults(fn=fluid_cli.run)

    suite = sub.add_parser(
        "suite", help="run the experiment suite (E01-E26) across worker "
                      "processes with result caching (see "
                      "docs/EXECUTION.md)")
    exec_cli.add_suite_arguments(suite)
    suite.set_defaults(fn=exec_cli.run_suite_command)

    sweep = sub.add_parser(
        "sweep", help="run a declarative parameter grid for one "
                      "scenario (see docs/EXECUTION.md)")
    exec_cli.add_sweep_arguments(sweep)
    sweep.set_defaults(fn=exec_cli.run_sweep_command)

    fuzz = sub.add_parser(
        "fuzz", help="generate, judge, shrink, and replay seeded "
                     "scenarios against the fair-share oracle (see "
                     "docs/FUZZING.md)")
    fuzz_cli.add_arguments(fuzz)
    fuzz.set_defaults(fn=fuzz_cli.run_command)

    serve = sub.add_parser(
        "serve", help="run the simulation-as-a-service gateway with "
                      "Phantom-MACR admission control (see "
                      "docs/SERVING.md)")
    serve_cli.add_arguments(serve)
    serve.set_defaults(fn=serve_cli.run)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
