"""``fuzz-campaign``: one cold generated batch through the process pool.

The pool of inputs is ``repro.fuzz.gen.generate_batch(root, MAX_BUDGET)``
for every root below ``ROOTS``; the outputs of all of them are recorded
in ``expected/fuzz.json``.  A run draws ``budget`` scenarios from the
pool, one from each of ``budget`` equal strata of the pool ordered by
recorded cost (seconds at the nominal host speed), costliest first, and
runs them through
``repro.fuzz.harness.run_campaign`` with one worker per CPU and a result
cache that starts empty; every outcome is judged.  Generated scenarios
differ in cost by more than an order of magnitude, and one root's batch
can cost half as much again as another's; the strata keep the work of
a run nearly independent of the seed while every scenario still comes
from the generator.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import random
import resource
import time
from collections import defaultdict
from typing import Any

from common import (NPROC, cache_entry_bytes, fresh_dir, load_expected,
                    median, outputs_digest, peak_rss_mb, prepare, remove_dir,
                    tail)

#: Batch roots whose outputs are recorded.
ROOTS = 16
#: Scenarios recorded per root.
MAX_BUDGET = 24
#: Scenarios per requested second (about what 2 CPUs complete).
NOMINAL_RATE = 1.0
#: Budget of each of a traced run's three campaigns.
TRACE_BUDGET = 8
EXPECTED_FILE = "fuzz.json"


def budget_for(seconds: float) -> int:
    return min(ROOTS * MAX_BUDGET, max(4, round(seconds * NOMINAL_RATE)))


def picks(seed: int, budget: int) -> list[str]:
    """Task ids of ``budget`` recorded scenarios, one per cost stratum
    drawn by the seed, costliest first.

    The pool hands tasks out in the order given (generated specs carry
    no duration hint), and the order sets when each scenario finishes;
    costliest first is the order ``run_tasks`` gives suite tasks, and it
    keeps the completion times from hanging on a seeded shuffle."""
    expected = load_expected(EXPECTED_FILE)
    pool = sorted(expected, key=lambda task: (
        expected[task]["cost_s"], task))
    rng = random.Random(seed)
    chosen = [pool[rng.randrange(j * len(pool) // budget,
                                 (j + 1) * len(pool) // budget)]
              for j in range(budget)]
    return chosen[::-1]


def specs_for(tasks: list[str]) -> list:
    """The generator's specs for task ids ``fuzz-ROOT-INDEX``.

    ``generate_batch`` is prefix-stable, so each drawn root generates
    only up to its highest drawn index."""
    from repro.fuzz.gen import generate_batch

    wanted: dict[int, int] = defaultdict(int)
    for task in tasks:
        _, root, index = task.split("-")
        wanted[int(root)] = max(wanted[int(root)], int(index) + 1)
    specs = {spec.task_id: spec for root in sorted(wanted)
             for spec in generate_batch(root, wanted[root])}
    return [specs[task] for task in tasks]


def check(result, judgment: dict[str, Any],
          expected: dict[str, Any]) -> list[str]:
    """Mismatches between one scenario's outputs and the recorded ones."""
    task = result.spec.task_id
    want = expected.get(task)
    if want is None:
        return [f"{task}: no recorded outputs"]
    problems = []
    if judgment["classification"] != want["classification"] \
            or judgment.get("checks", []) != want["checks"]:
        problems.append(f"{task}: judged {judgment['classification']} "
                        f"{judgment.get('checks')}, recorded "
                        f"{want['classification']} {want['checks']}")
    if not result.ok:
        problems.append(f"{task}: {result.status}: {result.error}")
        return problems
    if result.payload["executed_events"] != want["executed_events"]:
        problems.append(f"{task}: executed_events differ")
    elif outputs_digest(result.payload) != want["outputs"]:
        problems.append(f"{task}: probe digests differ")
    return problems


def reap_workers(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker has exited.

    ``run_tasks`` shuts its pool down without waiting; the workers exit
    once their call queue closes."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join()
            return
        time.sleep(0.01)


def run_campaign(specs: list, calibrated: bool = False) -> dict[str, Any]:
    """One cold campaign.  ``calibrated`` times the reference loop in
    the workers around each scenario; ``factor`` scales the campaign's
    times to the nominal host speed."""
    from repro.exec.cache import ResultCache
    from repro.fuzz.harness import run_campaign as harness_run

    import calibrate
    import spans

    cache_dir = fresh_dir("cache-")
    try:
        with (calibrate.in_workers() if calibrated
              else contextlib.nullcontext()):
            started_ns = time.time_ns()
            start = time.perf_counter()
            results, summary = harness_run(specs, jobs=NPROC,
                                           cache=ResultCache(cache_dir))
            wall = time.perf_counter() - start
        factor = calibrate.worker_factor(result.payload
                                         for result in results)
        spans.absorb_payloads(result.payload for result in results)
        entries, size = cache_entry_bytes(cache_dir)
        # run_tasks stores each result in the cache the moment it
        # arrives, so an entry's mtime is when that scenario was done
        latencies = sorted(
            (path.stat().st_mtime_ns - started_ns) / 1e9
            for path in cache_dir.rglob("*.json"))
    finally:
        remove_dir(cache_dir)
        reap_workers()
    return {"results": results, "summary": summary, "wall": wall,
            "factor": factor, "start": start, "latencies": latencies,
            "entries": entries, "entry_bytes": size}


def verdicts(done: dict[str, Any],
             expected: dict[str, Any]) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for result, judgment in zip(done["results"],
                                done["summary"]["judgments"]):
        mismatch = check(result, judgment, expected)
        failed += bool(mismatch)
        problems.extend(mismatch)
    return failed, problems


def measure(seed: int, seconds: float) -> dict[str, Any]:
    """One campaign; its wall time and completion times are scaled to
    the nominal host speed by the reference loop the workers timed
    around each scenario (``calibrate``)."""
    expected = load_expected(EXPECTED_FILE)
    budget = budget_for(seconds)
    specs = specs_for(picks(seed, budget))
    prepare(specs)
    done = run_campaign(specs, calibrated=True)
    scale = done["factor"]
    failed, problems = verdicts(done, expected)
    latencies = [t * scale for t in done["latencies"]]
    tail_s, tail_pct, samples = tail(latencies)
    return {"attempted": budget, "failed": failed, "problems": problems,
            "tasks_per_s": budget / (done["wall"] * scale),
            "latency_p50_s": median(latencies),
            "latency_tail_s": tail_s,
            # the campaign process: a pool worker's peak depends on
            # which scenarios the pool happened to hand it
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            "notes": {"budget": budget,
                      "largest_child_peak_mb":
                          peak_rss_mb(resource.RUSAGE_CHILDREN),
                      "jobs": NPROC, "campaign_s": done["wall"],
                      "host_speed_factor": scale,
                      "wall_tasks_per_s": budget / done["wall"],
                      "wall_latency_p50_s": median(done["latencies"]),
                      "latency_tail_percentile": round(tail_pct, 2),
                      "latency_samples": samples,
                      "counts": done["summary"]["counts"]}}


def traced(seed: int) -> dict[str, Any]:
    """An untraced, a traced and a profiled campaign of
    ``TRACE_BUDGET`` scenarios."""
    import spans

    expected = load_expected(EXPECTED_FILE)
    tasks = picks(seed, TRACE_BUDGET)
    prepare(specs_for(tasks))
    # each repeat generates its specs, so the traced one times the
    # generator
    plain, (rec, done), (profiled, last) = spans.traced_repeats(
        lambda: run_campaign(specs_for(tasks)))
    failed, problems = 0, []
    for run in (plain, done, last):
        run_failed, run_problems = verdicts(run, expected)
        failed, problems = failed + run_failed, problems + run_problems
    return {"recorder": rec, "profiled": profiled,
            "results": done["results"], "summary": done["summary"],
            "tasks": TRACE_BUDGET, "campaign_start": done["start"],
            # the traced campaign's entries also hold shipped spans
            "entries": plain["entries"], "entry_bytes": plain["entry_bytes"],
            "overhead_s": done["wall"] - plain["wall"],
            "problems": problems, "attempted": 3 * TRACE_BUDGET,
            "failed": failed}
