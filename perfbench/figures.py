"""``atm-figures`` and ``tcp-figures``: the E01–E26 suite, serially.

Each pass runs every task of one kind (``atm.*`` or ``tcp.*``) of
``repro.exec.suite.suite_specs`` once, in suite order, through
``repro.exec.run_tasks`` with one job (in-process
``repro.exec.worker.execute_task``) against a result cache that starts
empty for every pass.  The suite's own root seed is ``seed mod
SEED_ROOTS``: the ATM suite has three seeded tasks, whose expected
outputs are recorded for each of those roots.
"""

from __future__ import annotations

import time
from typing import Any

from common import (cache_entry_bytes, fresh_dir, load_expected, median,
                    outputs_digest, prepare, remove_dir, spec_key, tail)

#: Horizon scale of every task (the suite-smoke scale).
SCALE = 0.2
#: Suite root seeds whose outputs ``expected/figures.json`` records.
SEED_ROOTS = 32
#: Seconds one pass takes on a 2-CPU x86-64 host; a run makes
#: ``passes_for(kind, seconds)`` passes, so the work of a run depends on
#: its arguments only.
NOMINAL_PASS_S = {"atm": 7.0, "tcp": 6.0}
EXPECTED_FILE = "figures.json"


def suite(kind: str, root: int) -> list:
    from repro.exec.suite import suite_specs
    return [spec for spec in suite_specs(scale=SCALE, seed=root)
            if spec.scenario.startswith(kind + ".")]


def ordered_specs(kind: str, seed: int) -> list:
    # suite order, not a seeded one: peak RSS depends on the order the
    # tasks fragment the heap in (tcp-figures read 50 to 65 MiB across
    # shuffled orders)
    return suite(kind, seed % SEED_ROOTS)


def passes_for(kind: str, seconds: float) -> int:
    """``round(seconds / NOMINAL_PASS_S)``, made odd and at least 3, so
    every task's median time is one of its measured times."""
    return max(3, round(seconds / NOMINAL_PASS_S[kind])) | 1


def check(result, expected: dict[str, Any]) -> list[str]:
    """Mismatches between one task's outputs and the recorded ones."""
    if not result.ok:
        return [f"{result.spec.task_id}: {result.status}: {result.error}"]
    want = expected.get(spec_key(result.spec))
    if want is None:
        return [f"{result.spec.task_id}: no recorded outputs"]
    payload = result.payload
    if payload["executed_events"] != want["executed_events"]:
        return [f"{result.spec.task_id}: executed_events "
                f"{payload['executed_events']} != "
                f"{want['executed_events']}"]
    if outputs_digest(payload) != want["outputs"]:
        return [f"{result.spec.task_id}: probe digests differ"]
    return []


def run_pass(specs: list, calibrator=None) -> dict[str, Any]:
    """One cold-cache pass; per-task latency and results.  With a
    ``calibrator``, the reference loop is timed before the first task
    and after each one (``refs``); ``wall`` is the tasks' time alone."""
    from repro.exec.cache import ResultCache
    from repro.exec.pool import run_tasks

    cache_dir = fresh_dir("cache-")
    try:
        cache = ResultCache(cache_dir)
        results, latencies, refs = [], [], []
        if calibrator is not None:
            refs.append(calibrator.measure())
        for spec in specs:
            began = time.perf_counter()
            results.append(run_tasks([spec], jobs=1, cache=cache)[0])
            latencies.append(time.perf_counter() - began)
            if calibrator is not None:
                refs.append(calibrator.measure())
        entries, size = cache_entry_bytes(cache_dir)
    finally:
        remove_dir(cache_dir)
    return {"results": results, "latencies": latencies, "refs": refs,
            "wall": sum(latencies),
            "entries": entries, "entry_bytes": size}


def measure(kind: str, seed: int, seconds: float) -> dict[str, Any]:
    """Untraced passes: end-to-end figures and the correctness verdict.

    Every time is a task's wall time scaled to the nominal host speed
    by the reference loop timed on either side of it (``calibrate``);
    the unscaled figures are in the notes.  ``tasks_per_s`` divides the
    task count by the sum of each task's median time over the passes,
    so a slow spell during one pass moves no task's median."""
    from calibrate import Calibrator, scaled

    expected = load_expected(EXPECTED_FILE)
    specs = ordered_specs(kind, seed)
    prepare(specs)
    passes = passes_for(kind, seconds)
    times, walls, refs, problems = [], [], [], []
    attempted = failed = 0
    with Calibrator() as calibrator, calibrator.pinned():
        for _ in range(passes):
            done = run_pass(specs, calibrator)
            times.append(scaled(done["latencies"], done["refs"]))
            walls.append(done["latencies"])
            refs.extend(done["refs"])
            for result in done["results"]:
                attempted += 1
                mismatch = check(result, expected)
                failed += bool(mismatch)
                problems.extend(mismatch)

    def rate(per_pass):
        return len(specs) / sum(median(task_times)
                                for task_times in zip(*per_pass))

    latencies = [t for pass_times in times for t in pass_times]
    tail_s, tail_pct, samples = tail(latencies)
    return {"attempted": attempted, "failed": failed,
            "problems": problems,
            "tasks_per_s": rate(times),
            "latency_p50_s": median(latencies),
            "latency_tail_s": tail_s,
            "notes": {"passes": passes, "tasks_per_pass": len(specs),
                      "latency_tail_percentile": round(tail_pct, 2),
                      "latency_samples": samples,
                      "reference_p50_s": median(refs),
                      "wall_tasks_per_s": rate(walls),
                      "wall_latency_p50_s": median(
                          [t for pass_times in walls for t in pass_times]),
                      "wall_pass_rates": [len(specs) / sum(w)
                                          for w in walls]}}


def traced(kind: str, seed: int) -> dict[str, Any]:
    """An untraced, a traced and a profiled pass; per-layer figures."""
    import spans

    expected = load_expected(EXPECTED_FILE)
    specs = ordered_specs(kind, seed)
    prepare(specs)
    plain, (rec, done), (profiled, last) = spans.traced_repeats(
        lambda: run_pass(specs))
    results = plain["results"] + done["results"] + last["results"]
    mismatches = [check(result, expected) for result in results]
    return {"recorder": rec, "profiled": profiled,
            "results": done["results"],
            "entries": done["entries"], "entry_bytes": done["entry_bytes"],
            "overhead_s": done["wall"] - plain["wall"],
            "problems": [p for found in mismatches for p in found],
            "attempted": len(results),
            "failed": sum(bool(found) for found in mismatches)}
