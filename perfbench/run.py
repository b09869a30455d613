"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload atm-figures --seed 0 \\
        --seconds 20 --trace 0

Run from the root of a checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  The line before it carries notes (sample counts, tail
percentiles, the trace file).  A correctness mismatch prints the result
with ``correct: false`` and exits 1; a checkout without ``src/`` exits
2 without a result.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys

from common import (HERE, OUT, CheckoutError, EXPECTED, load_expected,
                    peak_rss_mb, require_program, setup_seconds)

WORKLOADS = ("atm-figures", "tcp-figures", "fuzz-campaign", "serve-mixed")
#: Fresh processes whose median set-up time ``setup_s`` reports.
SETUP_REPEATS = 5


def _spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def untraced(workload: str, seed: int, seconds: float) -> dict:
    import campaign
    import figures
    import serving
    from calibrate import Calibrator

    if workload == "serve-mixed":
        out = serving.measure(seed, seconds)
        out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
        return out
    # the fuzz draw reads the recorded pool, not the program, so it is
    # made here and the probe gets the drawn scenario ids
    probe_args = (campaign.picks(seed, campaign.budget_for(seconds))
                  if workload == "fuzz-campaign" else [str(seed)])
    # the probes inherit the pinned CPU, so each runs where the
    # reference loop on either side of it does
    with Calibrator() as calibrator, calibrator.pinned():
        setup_s = setup_seconds(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             *probe_args], "ready", SETUP_REPEATS, exits=True,
            calibrator=calibrator)
    if workload == "fuzz-campaign":
        out = campaign.measure(seed, seconds)
    else:
        out = figures.measure(workload.split("-")[0], seed, seconds)
        out["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_SELF)
    out["setup_s"] = setup_s
    return out


def traced(workload: str, seed: int) -> dict:
    import campaign
    import figures
    import layers
    import serving
    import spans

    if workload == "serve-mixed":
        run = serving.traced(seed, OUT / f"gateway-{os.getpid()}.json")
    elif workload == "fuzz-campaign":
        run = campaign.traced(seed)
    else:
        run = figures.traced(workload.split("-")[0], seed)
    metrics = layers.layer_metrics(workload, run)
    counts = layers.exact_counts(metrics)
    recorded = None
    if (EXPECTED / "counts.json").is_file():
        recorded = load_expected("counts.json").get(workload, {}).get(
            str(seed))
    trace_path = OUT / f"{workload}-seed{seed}.trace.json"
    notes = {"trace": str(trace_path.relative_to(HERE.parent)),
             "spans": len(run["recorder"].spans),
             "exact_counts": counts,
             "exact_counts_match_recorded":
                 None if recorded is None else recorded == counts}
    spans.write_chrome(trace_path, run["recorder"].spans,
                       {"workload": workload, "seed": seed, **notes})
    return {"attempted": run["attempted"], "failed": run["failed"],
            "problems": run["problems"], "notes": notes, **metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_program()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = _spec()
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        out = traced(args.workload, args.seed)
    else:
        out = untraced(args.workload, args.seed, args.seconds)
        # an end-to-end metric must never read 0, so the fail share is
        # reported as its complement; the notes carry it too
        fail_share = out["failed"] / out["attempted"]
        out["ok_share"] = 1.0 - fail_share
        out["notes"]["fail_share"] = fail_share
    metrics = {m["name"]: {"value": out[m["name"]], "unit": m["unit"]}
               for m in wanted}
    correct = out["failed"] == 0 and not out["problems"]
    for problem in out["problems"][:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"notes": out.get("notes", {})}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
