"""Overload demo for the repro.serve gateway (writes BENCH_perf.json).

Boots the gateway twice in-process — once with Phantom-MACR admission,
once with admission disabled (the unbounded-FIFO ablation) — offers the
same open-loop load at several times the pool's service capacity, and
compares accepted-job latency. The point the numbers make: Phantom
sheds the excess at the door (429 + Retry-After), so the jobs it *does*
accept see a bounded queue and a bounded p95; the FIFO ablation accepts
everything and lets the tail latency grow with the backlog.

Named ``serve_load.py`` (no ``bench_`` prefix) so pytest does not
collect it. Run directly::

    PYTHONPATH=src python benchmarks/perf/serve_load.py --write

``--write`` merges the summary under the ``serve`` key of
``BENCH_perf.json``; without it the summary is just printed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.perf import record_bench
from repro.serve.client import RateLimited, ServeClient, ServeError
from repro.serve.server import ServeApp, ServeConfig

#: Each job is atm.staggered at this duration — ~65 ms of wall time —
#: so two slots give a service capacity of roughly 30 jobs/s.
JOB = {"scenario": "atm.staggered", "params": {"duration": 0.02}}

#: Admission capacity (jobs/s). Deliberately below the raw service
#: rate so the controller, not the OS scheduler, is the bottleneck.
CAPACITY_RPS = 15.0

#: Open-loop offered load: 4x the admission capacity.
OVERLOAD_FACTOR = 4.0

#: How long to offer the overload for.
OFFER_SECONDS = 5.0


def boot(admission: bool) -> tuple[ServeApp, threading.Thread]:
    config = ServeConfig(
        port=0, slots=2, capacity_rps=CAPACITY_RPS, burst=2.0,
        admission=admission, interval_s=0.25,
        queue_limit=2048,          # "unbounded" FIFO for the ablation
        job_timeout_s=60.0, cache_dir=None, manifest_path=None)
    app = ServeApp(config)
    thread = threading.Thread(target=lambda: asyncio.run(app.serve()),
                              daemon=True)
    thread.start()
    if not app.ready.wait(30):
        raise RuntimeError("server did not come up")
    return app, thread


def offer_load(client: ServeClient, rate_rps: float,
               duration_s: float) -> dict:
    """Open-loop submissions at ``rate_rps``; returns offered stats."""
    submitted, rejected_rate, rejected_full = [], 0, 0
    retry_hints = []
    step = 1.0 / rate_rps
    start = time.monotonic()
    next_at = start
    while True:
        now = time.monotonic()
        if now - start >= duration_s:
            break
        if now < next_at:
            time.sleep(next_at - now)
        next_at += step
        try:
            # vary the seed so no submission is a cache hit
            accepted = client.submit(seed=len(submitted) + rejected_rate,
                                     **JOB)
            submitted.append(accepted["id"])
        except RateLimited as exc:
            rejected_rate += 1
            retry_hints.append(exc.retry_after_s)
        except ServeError as exc:
            if exc.status == 503:
                rejected_full += 1
            else:
                raise
    return {
        "offered": len(submitted) + rejected_rate + rejected_full,
        "accepted_ids": submitted,
        "rejected_429": rejected_rate,
        "rejected_503": rejected_full,
        "retry_after_mean_s": (sum(retry_hints) / len(retry_hints)
                               if retry_hints else 0.0),
    }


def drain_and_measure(client: ServeClient, ids: list[str]) -> dict:
    """Wait for every accepted job; latency from server timestamps."""
    latencies = []
    for job_id in ids:
        final = client.wait(job_id, deadline_s=120)
        if final["state"] != "ok":
            raise RuntimeError(f"job {job_id}: {final['state']}")
        latencies.append(final["finished_at"] - final["submitted_at"])
    latencies.sort()

    def pct(p: float) -> float:
        if not latencies:
            return 0.0
        k = min(len(latencies) - 1, int(p * len(latencies)))
        return latencies[k]

    return {"jobs": len(latencies),
            "p50_s": round(pct(0.50), 4),
            "p95_s": round(pct(0.95), 4),
            "max_s": round(latencies[-1], 4) if latencies else 0.0}


def run_mode(admission: bool) -> dict:
    label = "phantom" if admission else "no_admission"
    app, thread = boot(admission)
    client = ServeClient("127.0.0.1", app.port, client_id="loadgen",
                         timeout_s=120.0)
    try:
        offered = offer_load(client, CAPACITY_RPS * OVERLOAD_FACTOR,
                             OFFER_SECONDS)
        latency = drain_and_measure(client, offered.pop("accepted_ids"))
        state = client.healthz()["admission"]
    finally:
        client.close()
        app.request_shutdown_threadsafe()
        thread.join(60)
    summary = {**offered, **latency,
               "accepted_rate_rps": round(latency["jobs"] / OFFER_SECONDS,
                                          2),
               "macr_rps": round(state["macr_rps"], 3),
               "grant_rps": round(state["grant_rps"], 3)}
    print(f"[{label}] {json.dumps(summary, sort_keys=True)}", flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="record the summary in BENCH_perf.json")
    args = parser.parse_args()

    serve = {
        "capacity_rps": CAPACITY_RPS,
        "overload_factor": OVERLOAD_FACTOR,
        "offer_seconds": OFFER_SECONDS,
        "phantom": run_mode(admission=True),
        "no_admission": run_mode(admission=False),
    }

    phantom, fifo = serve["phantom"], serve["no_admission"]
    if phantom["rejected_429"] == 0:
        print("FAIL: Phantom never rejected under 4x overload")
        return 1
    if phantom["retry_after_mean_s"] <= 0:
        print("FAIL: 429s carried no Retry-After hint")
        return 1
    if phantom["p95_s"] >= fifo["p95_s"]:
        print("FAIL: Phantom p95 not below the FIFO ablation")
        return 1
    ratio = fifo["p95_s"] / max(phantom["p95_s"], 1e-9)
    serve["p95_ratio_fifo_over_phantom"] = round(ratio, 2)
    print(f"accepted-job p95: phantom {phantom['p95_s']}s vs "
          f"FIFO {fifo['p95_s']}s ({ratio:.1f}x)", flush=True)

    if args.write:
        path = REPO_ROOT / "BENCH_perf.json"
        record_bench(str(path), "serve", serve)
        print(f"wrote serve summary to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
