"""``repro fuzz``: seeded campaigns, shrinking, corpus replay.

Three subcommands over the :mod:`repro.fuzz` machinery:

``repro fuzz run --seed 0 --budget 60``
    generate a batch, execute it cache-first, judge every outcome, and
    exit non-zero if anything violated / crashed / timed out.  Writes
    run manifests (``--manifest``), JSON reports (``--output``), and
    scenarios/sec throughput rows (``--record-bench``, BENCH_perf.json
    ``fuzz`` key).
``repro fuzz shrink --spec failing.json --output minimized.json``
    greedily minimize a failing spec (a ``TaskSpec.to_dict()`` file or
    a corpus entry) while its failure reproduces.
``repro fuzz replay``
    re-run every committed corpus entry and verify each still
    reproduces its recorded judgment — the CLI face of the tier-1
    ``tests/fuzz/test_corpus.py`` gate.
"""

from __future__ import annotations

import argparse
import functools
import json
from pathlib import Path
from typing import Any

from repro import perf
from repro.analysis import format_table
from repro.exec import campaign
from repro.exec.spec import TaskSpec
from repro.fuzz.corpus import load_corpus, replay_entry
from repro.fuzz.gen import generate_batch
from repro.fuzz.harness import judge_batch
from repro.fuzz.shrink import shrink


def add_arguments(parser: argparse.ArgumentParser) -> None:
    sub = parser.add_subparsers(dest="fuzz_command", required=True)

    run_p = sub.add_parser(
        "run", help="generate and judge a seeded batch")
    run_p.add_argument("--budget", type=int, default=60,
                       help="number of generated scenarios (default 60)")
    run_p.add_argument("--eps", type=float, default=0.05,
                       help="oracle-closeness band (default 0.05)")
    run_p.add_argument("--manifest", default="",
                       help="write a merged run manifest to this path")
    run_p.add_argument("--assert-cached", action="store_true",
                       help="fail unless every task was served from "
                            "the cache (CI warm-replay check)")
    run_p.add_argument("--record-bench", default="",
                       help="merge scenarios/sec throughput into this "
                            "BENCH_perf.json-style report")
    campaign.add_executor_arguments(run_p)
    run_p.set_defaults(fuzz_fn=run_fuzz_command)

    shrink_p = sub.add_parser(
        "shrink", help="minimize a failing spec while it reproduces")
    shrink_p.add_argument("--spec", required=True,
                          help="failing spec: a TaskSpec JSON file or "
                               "a corpus entry")
    shrink_p.add_argument("--eps", type=float, default=0.05,
                          help="oracle-closeness band (default 0.05)")
    campaign.add_executor_arguments(shrink_p)
    shrink_p.set_defaults(fuzz_fn=run_shrink_command)

    replay_p = sub.add_parser(
        "replay", help="re-verify every committed corpus entry")
    replay_p.add_argument("--corpus-dir", default="tests/fuzz/corpus",
                          help="corpus directory "
                               "(default tests/fuzz/corpus)")
    replay_p.add_argument("--eps", type=float, default=0.05,
                          help="oracle-closeness band (default 0.05)")
    campaign.add_executor_arguments(replay_p)
    replay_p.set_defaults(fuzz_fn=run_replay_command)


def run_command(args: argparse.Namespace) -> int:
    return args.fuzz_fn(args)


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def _print_judgments(summary: dict[str, Any]) -> None:
    rows = []
    for judgment in summary["judgments"]:
        note = ", ".join(judgment.get("checks", []))
        if not note and "oracle_skipped" in judgment:
            note = f"oracle n/a: {judgment['oracle_skipped'][:48]}"
        rows.append([judgment["task_id"], judgment["classification"],
                     "cache" if judgment["cached"] else "run", note])
    print(format_table(["task", "verdict", "source", ""], rows))
    counts = summary["counts"]
    print(f"\n{counts['pass']} pass, {counts['violated']} violated, "
          f"{counts['crash']} crash, {counts['timeout']} timeout; "
          f"{summary['oracle_checked']} oracle-checked")


def run_fuzz_command(args: argparse.Namespace) -> int:
    try:
        specs = generate_batch(args.seed, args.budget)
    except ValueError as exc:
        raise SystemExit(f"repro fuzz run: {exc}") from exc
    run = campaign.run("fuzz", specs, args,
                       judge=functools.partial(judge_batch, eps=args.eps))
    summary = run.judged
    run.print_results()
    print()
    _print_judgments(summary)
    run.summarise()

    counts = summary["counts"]
    status = 0 if counts["pass"] == len(run.results) else 1
    if args.assert_cached and not run.check_cached():
        status = 1

    if args.output:
        run.write_report(args.output, seed=args.seed, budget=args.budget,
                         judgments=summary["judgments"], counts=counts)
    if args.manifest:
        run.write_manifest(
            args.manifest, params={"budget": args.budget, "eps": args.eps},
            seed=args.seed,
            metrics={f"counts.{k}": float(v) for k, v in counts.items()},
            health=run.health())
    if args.record_bench:
        # key by jobs AND warmth: the cold row measures simulation
        # throughput, the warm row cache-lookup throughput
        warmth = "warm" if run.cached == len(run.results) else "cold"
        run.record_bench(
            args.record_bench, f"j{run.jobs}-{warmth}", seed=args.seed,
            budget=len(run.results),
            scenarios_per_sec=round(len(run.results) / run.wall_s, 2))
    return status


# ----------------------------------------------------------------------
# shrink
# ----------------------------------------------------------------------
def _load_spec(path: str) -> TaskSpec:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if "spec" in data and isinstance(data["spec"], dict):
        data = data["spec"]  # corpus entry
    try:
        return TaskSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"repro fuzz shrink: {path} does not hold a "
                         f"task spec: {exc}") from exc


def run_shrink_command(args: argparse.Namespace) -> int:
    spec = _load_spec(args.spec)
    cache = campaign.open_cache(args)
    try:
        report = shrink(spec, eps=args.eps, cache=cache,
                        timeout=args.timeout)
    except ValueError as exc:
        raise SystemExit(f"repro fuzz shrink: {exc}") from exc
    minimized: TaskSpec = report["spec"]
    ratio = report["size_after"] / report["size_before"]
    print(f"reproduced {report['signature']['classification']}"
          + (f" ({report['signature']['check']})"
             if report['signature']['check'] else ""))
    for step in report["steps"]:
        print(f"  - {step}")
    print(f"{report['size_before']} -> {report['size_after']} bytes "
          f"({ratio:.0%}) in {report['attempts']} attempts")
    if args.output:
        payload = {"spec": minimized.to_dict(),
                   "signature": report["signature"],
                   "steps": report["steps"],
                   "size_before": report["size_before"],
                   "size_after": report["size_after"]}
        perf.write_report(args.output, payload)
        print(f"wrote {args.output}")
    return 0


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def run_replay_command(args: argparse.Namespace) -> int:
    try:
        entries = load_corpus(args.corpus_dir)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"repro fuzz replay: {exc}") from exc
    if not entries:
        print(f"no corpus entries under {args.corpus_dir}")
        return 1
    cache = campaign.open_cache(args)
    rows = []
    status = 0
    for path, entry in entries:
        ok, judgment = replay_entry(entry, eps=args.eps, cache=cache,
                                    timeout=args.timeout)
        expected = entry["expect"]["classification"]
        rows.append([entry["name"], expected,
                     judgment["classification"],
                     "ok" if ok else "DIVERGED",
                     ", ".join(judgment.get("checks", []))])
        if not ok:
            status = 1
    print(format_table(
        ["entry", "expected", "got", "verdict", "checks"], rows))
    print(f"\n{len(entries)} corpus entr"
          f"{'y' if len(entries) == 1 else 'ies'} replayed; "
          + ("all reproduce" if status == 0 else "DIVERGENCE detected"))
    return status
