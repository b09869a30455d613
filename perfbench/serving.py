"""``serve-mixed``: an open-loop client against the ``repro serve`` gateway.

The gateway runs in its own process (``python -m repro serve``, or
``gateway.py`` for a traced run) with one bridge slot per CPU and a
result cache that starts empty.  This process is the only client: one
thread per CPU, each with one connection at a time.  Job *i* is due at
``i / RATE_RPS`` seconds; its thread submits it when due (late if the
thread is still waiting on its previous job) and then follows the job's
event stream to its terminal state.  Every job is a short ``atm.onoff``
run.  In each block of five jobs two, at seeded positions, repeat one of
``REPEAT_SET`` seeded specs, so they are answered from the cache after
their first run; the other three carry fresh seeds and are simulated.
With three fresh jobs in five the latency median lies inside the fresh
jobs' mode instead of on the edge between the two modes.
"""

from __future__ import annotations

import contextlib
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any

from common import (HERE, NPROC, cache_entry_bytes, fresh_dir, median,
                    remove_dir, stop, tail, time_until_line)

RATE_RPS = 6.0
#: Admission capacity told to the gateway; the offered rate is well
#: below both it and what the slots can serve, so nothing is refused.
CAPACITY_RPS = 30.0
REPEAT_SET = 4
JOB_PARAMS = {"duration": 0.02}
SCENARIO = "atm.onoff"
#: Gateway boots per run; set-up time is their median, the last one
#: serves the load.
BOOTS = 5
#: Fewest load gaps in which a run must time the reference loop.
MIN_GAPS = 20
#: Seconds of load in each half of a traced run.
TRACE_SECONDS = 8.0
LISTENING = "listening on http://"


def schedule(seed: int, jobs: int) -> list[dict[str, Any]]:
    """The run's submissions, in due order."""
    rng = random.Random(seed)
    repeat_seeds = [rng.randrange(2**31) for _ in range(REPEAT_SET)]
    used = set(repeat_seeds)
    out = []
    for block in range(0, jobs, 5):
        repeats = set(rng.sample(range(5), 2))
        for offset in range(min(5, jobs - block)):
            if offset in repeats:
                job_seed = rng.choice(repeat_seeds)
            else:
                job_seed = rng.randrange(2**31)
                while job_seed in used:
                    job_seed = rng.randrange(2**31)
                used.add(job_seed)
            index = block + offset
            out.append({"index": index, "seed": job_seed,
                        "repeat": offset in repeats,
                        "task_id": f"serve-{seed}-{index:04d}"})
    return out


def gateway_argv(cache_dir: Path, trace_out: Path | None,
                 profile: bool) -> list[str]:
    serve = ["serve", "--port", "0", "--slots", str(NPROC),
             "--capacity", str(CAPACITY_RPS), "--cache", str(cache_dir),
             "--manifest", ""]
    if trace_out is None:
        return [sys.executable, "-m", "repro"] + serve
    return [sys.executable, str(HERE / "gateway.py"), str(trace_out),
            str(int(profile))] + serve


def boot(cache_dir: Path, trace_out: Path | None = None,
         profile: bool = False):
    """``(seconds to the listening line, process, port)``."""
    elapsed, proc = time_until_line(
        gateway_argv(cache_dir, trace_out, profile), LISTENING, keep=True)
    port = int(proc.marker_line.split(LISTENING, 1)[1]
               .split()[0].rsplit(":", 1)[1])
    return elapsed, proc, port


def drive(port: int, jobs: list[dict[str, Any]], rate: float,
          calibrator=None) -> tuple[list[dict[str, Any]], list[float]]:
    """Offer ``jobs`` open-loop at ``rate``; one record per job.

    With a ``calibrator`` (whose child shares the gateway's CPU), the
    reference loop is also timed halfway between two due times whenever
    no job is in flight from start to end of the loop: the CPU the jobs
    ran on has just been busy, as it is between two tasks of the figure
    workloads.  Those loop times are returned too."""
    from repro.serve.client import RateLimited, ServeClient, ServeError

    records: list[dict[str, Any]] = [dict(job) for job in jobs]
    start = time.monotonic() + 0.05
    flight = {"jobs": 0, "sent": 0}
    flight_lock = threading.Lock()
    refs: list[float] = []

    def calibrate_gaps() -> None:
        for gap in range(len(records)):
            due = start + (gap + 0.5) / rate
            now = time.monotonic()
            if now < due:
                time.sleep(due - now)
            with flight_lock:
                before = dict(flight)
            if before["jobs"]:
                continue
            took = calibrator.measure()
            with flight_lock:
                if flight == before:
                    refs.append(took)

    def worker(lane: int) -> None:
        with ServeClient("127.0.0.1", port, client_id="perfbench",
                         timeout_s=60.0) as client:
            for record in records[lane::NPROC]:
                due = start + record["index"] / rate
                now = time.monotonic()
                if now < due:
                    time.sleep(due - now)
                record["due"] = due
                with flight_lock:
                    flight["jobs"] += 1
                    flight["sent"] += 1
                record["sent"] = time.monotonic()
                try:
                    accepted = client.submit(
                        SCENARIO, params=JOB_PARAMS, seed=record["seed"],
                        task_id=record["task_id"])
                    final = client.wait(accepted["id"], deadline_s=60.0)
                except RateLimited:
                    record["outcome"] = "refused"
                except ServeError as exc:
                    record["outcome"] = ("refused" if exc.status == 503
                                         else f"http {exc.status}")
                except Exception as exc:  # noqa: BLE001 - a failed job
                    record["outcome"] = f"error: {exc!r}"
                else:
                    record["seen"] = time.monotonic()
                    record["outcome"] = final["state"]
                    record["snapshot"] = final
                finally:
                    with flight_lock:
                        flight["jobs"] -= 1

    threads = [threading.Thread(target=worker, args=(lane,))
               for lane in range(NPROC)]
    for thread in threads:
        thread.start()
    if calibrator is not None:
        calibrate_gaps()       # here, so the client keeps nproc threads
    for thread in threads:
        thread.join()
    for record in records:
        if "outcome" not in record:    # its thread died before sending
            record["due"] = record["sent"] = start
            record["outcome"] = "not sent"
    return records, refs


def reference_check(records: list[dict[str, Any]]) -> list[str]:
    """Each job's digests against a serial ``execute_task`` here."""
    from repro.exec.spec import TaskSpec
    from repro.exec.worker import execute_task

    reference: dict[int, dict] = {}
    problems = []
    for record in records:
        if record["outcome"] != "ok":
            problems.append(f"{record['task_id']}: {record['outcome']}")
            continue
        if record["seed"] not in reference:
            spec = TaskSpec(task_id=record["task_id"], scenario=SCENARIO,
                            params=JOB_PARAMS, seed=record["seed"])
            payload = execute_task({"spec": spec.to_dict(),
                                    "timeout": None})
            reference[record["seed"]] = payload.get("probe_digests")
        if record["snapshot"].get("probe_digests") \
                != reference[record["seed"]]:
            record["outcome"] = "mismatch"
            problems.append(f"{record['task_id']}: probe digests differ "
                            f"from a serial execute_task")
    return problems


def session(seed: int, seconds: float, *, boots: int,
            trace_out: Path | None = None, profile: bool = False,
            rate: float = RATE_RPS, calibrator=None) -> dict[str, Any]:
    """Boot, offer the load, stop the gateway; check every job.  With a
    ``calibrator``, the gateways run on its child's CPU (they inherit it
    from this process while it is pinned), boots are timed between
    reference loops (``boot_refs``) and the load times the loop in its
    gaps (``refs``)."""
    cache_dir = fresh_dir("cache-")
    proc = None
    try:
        boot_s, boot_refs = [], []
        with (calibrator.pinned() if calibrator is not None
              else contextlib.nullcontext()):
            for i in range(boots):
                if calibrator is not None and i == 0:
                    boot_refs.append(calibrator.measure())
                elapsed, proc, port = boot(cache_dir, trace_out, profile)
                boot_s.append(elapsed)
                if i < boots - 1:
                    stop(proc)
                if calibrator is not None:
                    boot_refs.append(calibrator.measure())
        records, refs = drive(port, schedule(seed, round(seconds * rate)),
                              rate, calibrator)
        stop(proc)
        entries, size = cache_entry_bytes(cache_dir)
    finally:
        if proc is not None:
            stop(proc)
        remove_dir(cache_dir)
    problems = reference_check(records)
    return {"records": records, "boot_s": boot_s, "boot_refs": boot_refs,
            "problems": problems, "refs": refs, "entries": entries,
            "entry_bytes": size}


def _ok(records):
    return [r for r in records if r["outcome"] == "ok"]


def measure(seed: int, seconds: float) -> dict[str, Any]:
    """One session.  Latencies are scaled to the nominal host speed by
    the reference loop timed in the load's gaps on the gateway's CPU,
    boot times by the loop timed on either side of each boot
    (``calibrate``); the offered rate is not scaled."""
    from calibrate import REFERENCE_S, Calibrator, scaled

    with Calibrator() as calibrator:
        done = session(seed, seconds, boots=BOOTS, calibrator=calibrator)
    problems = list(done["problems"])
    if len(done["refs"]) < MIN_GAPS:
        problems.append(f"the reference loop was timed in "
                        f"{len(done['refs'])} gaps of the load, fewer "
                        f"than {MIN_GAPS}")
    scale = REFERENCE_S / median(done["refs"]) if done["refs"] else 1.0
    records = done["records"]
    ok = _ok(records)
    walls = [r["seen"] - r["due"] for r in ok]
    latencies = [t * scale for t in walls]
    tail_s, tail_pct, samples = tail(latencies)
    window = (max(r["seen"] for r in ok) - min(r["due"] for r in records)
              if ok else 0.0)
    return {"attempted": len(records),
            "failed": len(records) - len(ok),
            "problems": problems,
            "setup_s": median(scaled(done["boot_s"], done["boot_refs"])),
            "tasks_per_s": len(ok) / window if ok else 0.0,
            "latency_p50_s": median(latencies),
            "latency_tail_s": tail_s,
            "notes": {"jobs": len(records), "rate_rps": RATE_RPS,
                      "latency_tail_percentile": round(tail_pct, 2),
                      "latency_samples": samples,
                      "host_speed_factor": scale,
                      "calibrated_gaps": len(done["refs"]),
                      "wall_latency_p50_s": median(walls),
                      "wall_setup_s": median(done["boot_s"]),
                      "boot_s": done["boot_s"]}}


def job_layers(records: list[dict[str, Any]]) -> dict[str, float]:
    """Per-layer serve figures from the jobs' server timestamps."""
    ok = _ok(records)
    waits = [r["snapshot"]["started_at"] - r["snapshot"]["submitted_at"]
             for r in ok]
    service = {True: [], False: []}
    overhead = []
    for r in ok:
        snap = r["snapshot"]
        service[bool(snap["cached"])].append(
            snap["finished_at"] - snap["started_at"])
        overhead.append((r["seen"] - r["sent"])
                        - (snap["finished_at"] - snap["submitted_at"]))
    refused = sum(r["outcome"] == "refused" for r in records)
    return {
        "serve.queue.wait_p50_s": median(waits),
        "serve.queue.wait_tail_s": tail(waits)[0],
        "serve.runner.exec_fresh_p50_s": median(service[False]),
        "serve.runner.exec_cached_p50_s": median(service[True]),
        "serve.protocol.overhead_p50_s": median(overhead),
        "serve.admission.refused_share": refused / len(records),
        "serve.client.lag_max_s": max(r["sent"] - r["due"]
                                      for r in records),
        "exec.cache.hit_ratio": len(service[True]) / max(1, len(ok)),
        "busy_s": sum(service[True]) + sum(service[False]),
    }


def traced(seed: int, trace_out: Path) -> dict[str, Any]:
    """An untraced, a traced and a profiled session of
    ``TRACE_SECONDS``; the gateway's busy time is the wall compared
    between the first two."""
    import json

    import spans

    plain = session(seed, TRACE_SECONDS, boots=1)
    runs = {}
    for profile in (False, True):
        # profiling slows the gateway several-fold; a quarter of the
        # rate keeps the profiled session as far from overload
        done = session(seed, TRACE_SECONDS, boots=1, trace_out=trace_out,
                       profile=profile,
                       rate=RATE_RPS / 4 if profile else RATE_RPS)
        rec = spans.Recorder()
        with open(trace_out, encoding="utf-8") as fh:
            rec.absorb(json.load(fh))
        trace_out.unlink()
        runs[profile] = (rec, done)
    (rec, done), (profiled, _) = runs[False], runs[True]
    layers = job_layers(done["records"])
    overhead = layers.pop("busy_s") - job_layers(plain["records"])["busy_s"]
    records = [r for run in (plain, done, runs[True][1])
               for r in run["records"]]
    problems = [p for run in (plain, done, runs[True][1])
                for p in run["problems"]]
    return {"recorder": rec, "profiled": profiled, "serve_layers": layers,
            "overhead_s": overhead, "entries": done["entries"],
            "entry_bytes": done["entry_bytes"],
            "problems": problems,
            "attempted": len(records),
            "failed": len(records) - len(_ok(records))}
