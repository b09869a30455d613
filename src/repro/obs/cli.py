"""``repro obs`` — record, inspect, convert, and diff observability
artifacts.

Subcommands::

    repro obs record     run a perf workload with tracing on; write the
                         JSONL trace and the run manifest
    repro obs summarize  per-kind / per-component event counts of a trace
    repro obs convert    JSONL trace -> Chrome trace_event JSON (Perfetto)
    repro obs validate   check a trace (and optionally a manifest) against
                         the schema invariants CI relies on
    repro obs diff       compare two run manifests (volatile environment
                         fields excluded unless --include-volatile)
    repro obs health     run a registry scenario and print its
                         HealthReport (exit 1 on any violated verdict)

See docs/OBSERVABILITY.md for the formats.
"""

from __future__ import annotations

import argparse
import time

from repro.exec.spec import parse_assignments
from repro.obs.chrome import write_chrome_trace
from repro.obs.health import DEFAULT_EPS, build_health
from repro.obs.manifest import (build_manifest, diff_manifests,
                                read_manifest, validate_manifest,
                                write_manifest)
from repro.obs.metrics import registry_from_run
from repro.obs.trace import (Tracer, read_trace_jsonl, summarize_events,
                             validate_trace_jsonl, write_trace_jsonl)
from repro.perf import write_report
from repro.perf.workloads import MIN_SCALE, WORKLOADS


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro obs`` subcommands on ``parser``."""
    sub = parser.add_subparsers(dest="obs_command", required=True)

    record = sub.add_parser(
        "record", help="run a perf workload with tracing enabled")
    record.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="e01_staggered")
    record.add_argument("--scale", type=float, default=MIN_SCALE,
                        help="multiplier on the workload's simulated "
                             f"horizon (>= {MIN_SCALE})")
    record.add_argument("--categories", default=None,
                        help="comma-separated trace categories "
                             "(default: all)")
    record.add_argument("--trace", default="obs_trace.jsonl",
                        help="JSONL trace output path")
    record.add_argument("--manifest", default="obs_manifest.json",
                        help="run manifest output path; '' to skip")
    record.set_defaults(obs_fn=_cmd_record)

    summarize = sub.add_parser(
        "summarize", help="per-kind/per-component counts of a trace")
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.set_defaults(obs_fn=_cmd_summarize)

    convert = sub.add_parser(
        "convert", help="JSONL trace -> Chrome trace_event (Perfetto)")
    convert.add_argument("trace", help="JSONL trace file")
    convert.add_argument("--output", default=None,
                         help="output path (default: <trace>.chrome.json)")
    convert.set_defaults(obs_fn=_cmd_convert)

    validate = sub.add_parser(
        "validate", help="check trace (and manifest) schema invariants")
    validate.add_argument("trace", help="JSONL trace file")
    validate.add_argument("--manifest", default=None,
                          help="also validate this run manifest")
    validate.set_defaults(obs_fn=_cmd_validate)

    diff = sub.add_parser(
        "diff", help="compare two run manifests")
    diff.add_argument("manifest_a")
    diff.add_argument("manifest_b")
    diff.add_argument("--include-volatile", action="store_true",
                      help="also compare git rev / python / platform / "
                           "wall time")
    diff.set_defaults(obs_fn=_cmd_diff)

    health = sub.add_parser(
        "health", help="run a scenario and print its HealthReport")
    health.add_argument("--scenario", default="atm.staggered",
                        help="registry scenario name (repro.exec)")
    health.add_argument("--set", action="append", default=[],
                        metavar="KEY=VALUE", dest="overrides",
                        help="scenario parameter (dotted keys reach "
                             "nested dicts; values parsed as JSON, "
                             "falling back to strings)")
    health.add_argument("--seed", type=int, default=None,
                        help="seed for stochastic scenarios")
    health.add_argument("--eps", type=float, default=None,
                        help="ε-band half-width vs the oracle "
                             "(default 0.05)")
    health.add_argument("--queue-bound", type=float, default=None,
                        help="override the derived per-port queue bound "
                             "(cells / packets)")
    health.add_argument("--output", default=None,
                        help="also write the report as JSON")
    health.set_defaults(obs_fn=_cmd_health)


def run(args: argparse.Namespace) -> int:
    return args.obs_fn(args)


def write_obs_artifacts(command: str, params: dict, run, tracer,
                        wall_s: float, trace_path: str,
                        manifest_path: str, seed=None,
                        health_scenario: str | None = None) -> None:
    """Write the run's trace (when recorded) and manifest (unless
    disabled with ``--manifest ''``), with the run's HealthReport
    folded into the manifest.  Shared by ``repro atm/tcp``, ``repro
    fluid run`` and ``repro obs record``."""
    if tracer is not None and trace_path:
        write_trace_jsonl(trace_path, tracer,
                          meta={"command": command, **params})
        print(f"\nwrote {trace_path} ({len(tracer.events)} events)")
    if manifest_path:
        registry = registry_from_run(run)
        health = build_health(run, scenario=health_scenario)
        manifest = build_manifest(
            command=command, params=params, seed=seed,
            metrics=registry.summary(), wall_s=wall_s,
            trace_path=trace_path or None, health=health)
        write_manifest(manifest_path, manifest)
        print(f"wrote {manifest_path} (health: {health['verdict']})")


# ----------------------------------------------------------------------
def _cmd_record(args: argparse.Namespace) -> int:
    categories = (None if args.categories is None
                  else [c.strip() for c in args.categories.split(",")
                        if c.strip()])
    tracer = Tracer(categories=categories)
    workload = WORKLOADS[args.workload]
    # wall-clock read is the measurement itself (CLI layer, not
    # simulation code); the simulated outcome stays deterministic
    start = time.perf_counter()  # lint: disable=DET002
    run_handle = workload.build_and_run(args.scale, tracer=tracer)
    wall_s = time.perf_counter() - start  # lint: disable=DET002

    write_obs_artifacts(
        "obs record",
        {"workload": args.workload, "scale": args.scale,
         "categories": categories},
        run_handle, tracer, wall_s, args.trace, args.manifest,
        seed=getattr(getattr(run_handle.net, "rng", None), "seed", None))
    return 0


def _cmd_summarize(args: argparse.Namespace) -> int:
    header, events = read_trace_jsonl(args.trace)
    summary = summarize_events(events)
    print(f"trace   : {args.trace}")
    print(f"schema  : {header.get('schema')} v{header.get('version')}")
    print(f"events  : {summary['events']}")
    if summary["events"]:
        print(f"span    : {summary['first_ts']:.6f} .. "
              f"{summary['last_ts']:.6f} s")
    print("kinds   :")
    for kind, count in summary["kinds"].items():
        print(f"  {kind:<24} {count}")
    print("components:")
    for comp, count in summary["components"].items():
        print(f"  {comp:<24} {count}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    output = args.output or f"{args.trace}.chrome.json"
    _header, events = read_trace_jsonl(args.trace)
    write_chrome_trace(output, events)
    print(f"wrote {output} ({len(events)} events); load it in "
          "https://ui.perfetto.dev or about://tracing")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    problems = [f"{args.trace}: {p}"
                for p in validate_trace_jsonl(args.trace)]
    if args.manifest:
        try:
            manifest = read_manifest(args.manifest)
        except (OSError, ValueError) as exc:
            problems.append(f"{args.manifest}: unreadable ({exc})")
        else:
            problems.extend(f"{args.manifest}: {p}"
                            for p in validate_manifest(manifest))
    if problems:
        for problem in problems:
            print(problem)
        return 1
    checked = args.trace + (f" and {args.manifest}" if args.manifest
                            else "")
    print(f"{checked}: ok")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.exec.registry import get_scenario

    entry = get_scenario(args.scenario)
    kwargs = parse_assignments(args.overrides, "--set")
    if entry.takes_seed and args.seed is not None:
        kwargs["seed"] = args.seed
    run_handle = entry.fn(**kwargs)
    report = build_health(run_handle, scenario=args.scenario,
                          eps=(DEFAULT_EPS if args.eps is None
                               else args.eps),
                          queue_bound=args.queue_bound)
    print(f"scenario : {args.scenario}")
    print(f"eps      : {report['eps']}")
    print(f"verdict  : {report['verdict']}")
    oracle = report.get("oracle")
    if oracle:
        shares = " ".join(f"{name}={rate:.2f}"
                          for name, rate in oracle.items())
        print(f"oracle   : {shares} Mb/s")
    print("checks   :")
    for entry_check in report["checks"]:
        line = f"  {entry_check['name']:<20} {entry_check['verdict']}"
        ts = entry_check["first_violation_ts"]
        if ts is not None:
            line += f"  (first violation at t={ts:.6f}s)"
        reason = entry_check["evidence"].get("reason")
        if reason:
            line += f"  ({reason})"
        print(line)
        if entry_check["verdict"] == "violated":
            for key, value in entry_check["evidence"].items():
                print(f"      {key}: {value}")
    if args.output:
        write_report(args.output, report)
        print(f"wrote {args.output}")
    return 1 if report["verdict"] == "violated" else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    a = read_manifest(args.manifest_a)
    b = read_manifest(args.manifest_b)
    diffs = diff_manifests(a, b, include_volatile=args.include_volatile)
    if diffs:
        print(f"{args.manifest_a} vs {args.manifest_b}:")
        for line in diffs:
            print(f"  {line}")
        return 1
    print("manifests match")
    return 0
