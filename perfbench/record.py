"""Record the outputs the benchmark's correctness checks compare against.

Run from the root of a checkout, on a tree whose outputs are trusted::

    python3 perfbench/record.py figures   # expected/figures.json
    python3 perfbench/record.py fuzz      # expected/fuzz.json
    python3 perfbench/record.py counts    # expected/counts.json

``figures`` and ``fuzz`` store each task's executed event count and one
sha256 over it and the task's probe digests (and each fuzz scenario's
judgment and its time at the nominal host speed, ``calibrate``) for
every seed root a run can draw.  ``counts`` stores the
exact structural counts of a traced run at seed 0 of every workload;
traced runs at that seed report whether they repeat them.  Re-record only when a change is meant to
alter simulated outcomes, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from common import (HERE, NPROC, ROOT, outputs_digest, program_env,
                    require_program, spec_key, write_expected)


def record_figures() -> None:
    import figures
    from repro.exec.worker import execute_task

    out: dict[str, dict] = {}
    for kind in ("atm", "tcp"):
        for root in range(figures.SEED_ROOTS):
            for spec in figures.suite(kind, root):
                key = spec_key(spec)
                if key in out:
                    continue
                payload = execute_task({"spec": spec.to_dict(),
                                        "timeout": None})
                if payload["status"] != "ok":
                    raise SystemExit(f"{spec.task_id}: {payload['error']}")
                out[key] = {"task_id": spec.task_id,
                            "executed_events": payload["executed_events"],
                            "outputs": outputs_digest(payload)}
                print(f"{spec.task_id} root {root}", flush=True)
    write_expected(figures.EXPECTED_FILE, out)


def record_fuzz() -> None:
    import calibrate
    import campaign
    from repro.fuzz.gen import generate_batch
    from repro.fuzz.harness import run_campaign

    out: dict[str, dict] = {}
    for root in range(campaign.ROOTS):
        specs = generate_batch(root, campaign.MAX_BUDGET)
        with calibrate.in_workers():
            results, summary = run_campaign(specs, jobs=NPROC)
        for result, judgment in zip(results, summary["judgments"]):
            if not result.ok:
                raise SystemExit(f"{result.spec.task_id}: "
                                 f"{result.status}: {result.error}")
            before, took, after = result.payload.pop(calibrate.REFS_KEY)
            out[result.spec.task_id] = {
                # seconds at the nominal host speed; the strata of a
                # run's draw are cut by it
                "cost_s": round(took * 2 * calibrate.REFERENCE_S
                                / (before + after), 4),
                "classification": judgment["classification"],
                "checks": judgment.get("checks", []),
                "executed_events": result.payload["executed_events"],
                "outputs": outputs_digest(result.payload)}
        print(f"root {root}: {summary['counts']}", flush=True)
    write_expected(campaign.EXPECTED_FILE, out)


def record_counts() -> None:
    out = {}
    for workload in ("atm-figures", "tcp-figures", "fuzz-campaign",
                     "serve-mixed"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "20", "--trace", "1"],
            cwd=ROOT, env=program_env(), capture_output=True, text=True,
            check=True)
        notes = json.loads(proc.stdout.splitlines()[-2])["notes"]
        out[workload] = {"0": notes["exact_counts"]}
        print(workload, out[workload], flush=True)
    write_expected("counts.json", out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("figures", "fuzz", "counts"))
    args = parser.parse_args()
    require_program()
    {"figures": record_figures, "fuzz": record_fuzz,
     "counts": record_counts}[args.what]()
    return 0


if __name__ == "__main__":
    sys.exit(main())
