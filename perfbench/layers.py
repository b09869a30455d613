"""Per-layer metrics of a traced run (see README.md for each metric).

A traced run repeats the same work three times: untraced, with spans,
and with spans and a profile of every simulate call.  Packet-layer
figures come from the profiled repeat and are reported per cell (per
packet on TCP) or as a share of profiled self time; per-task timings
are medians over the tasks of the repeat with spans only.
A layer that a workload does not exercise reads 0.
"""

from __future__ import annotations

from typing import Any

import spans
from common import NPROC, median

#: Counts that depend only on the inputs; they must repeat exactly.
EXACT = ("sim.engine.events_per_cell", "sim.engine.heap_ops_per_cell",
         "sim.probe.records_per_cell", "atm.port.calls_per_cell",
         "perf.golden.bytes_hashed", "fuzz.harness.oracle_checked_share")

_TASK_TIMES = ("scenarios.build_s", "sim.run_s", "perf.golden.digest_s",
               "scenarios.results.reduce_s", "obs.health.build_s",
               "exec.fingerprint.task_s", "exec.cache.get_s",
               "exec.cache.put_s")

_SERVE = ("serve.queue.wait_p50_s", "serve.queue.wait_tail_s",
          "serve.runner.exec_fresh_p50_s",
          "serve.runner.exec_cached_p50_s",
          "serve.protocol.overhead_p50_s",
          "serve.admission.refused_share", "serve.client.lag_max_s")

_FUZZ = ("exec.pool.busy_share", "exec.pool.idle_tail_s",
         "fuzz.gen.generate_s", "scenarios.generic.build_s",
         "fuzz.harness.judge_s", "fuzz.harness.oracle_checked_share")


def _per_cell(rec: spans.Recorder) -> dict[str, float]:
    events = sum(pair[0] for pair in rec.work.values())
    cells = sum(pair[1] for pair in rec.work.values())
    profile = rec.profile
    if cells == 0:
        return {}
    return {"sim.engine.events_per_cell": events / cells,
            "sim.engine.heap_ops_per_cell": profile.heap_ops / cells,
            "sim.probe.records_per_cell": profile.probe_records / cells,
            "atm.port.calls_per_cell":
                profile.calls.get("atm.port", 0) / cells}


def _pool(rec: spans.Recorder, campaign_start: float) -> dict[str, float]:
    """Busy share and idle tail of the pool workers."""
    work = [s for s in rec.spans if s["name"] == "exec.worker.execute_task"
            and s["pid"] != rec.pid]
    if not work:
        return {}
    last_end: dict[int, float] = {}
    for span in work:
        last_end[span["pid"]] = max(last_end.get(span["pid"], 0.0),
                                    span["end"])
    window = max(last_end.values()) - campaign_start
    busy = sum(s["end"] - s["start"] for s in work)
    return {"exec.pool.busy_share": busy / (NPROC * window),
            "exec.pool.idle_tail_s":
                max(last_end.values()) - min(last_end.values())}


def layer_metrics(workload: str, traced: dict[str, Any]) -> dict[str, float]:
    rec: spans.Recorder = traced["recorder"]
    profiled: spans.Recorder = traced["profiled"]
    metrics: dict[str, float] = {}
    for layer, share in profiled.profile.shares().items():
        metrics[f"{layer}.self_share"] = share
    metrics.update(_per_cell(profiled))

    rows = spans.per_task(rec.spans)
    for name in _TASK_TIMES:
        values = [row[name] for row in rows.values() if name in row]
        metrics[name] = median(values)
    hashed = list(rec.bytes_hashed.values())
    metrics["perf.golden.bytes_hashed"] = (sum(hashed) / len(hashed)
                                           if hashed else 0.0)
    entries = traced.get("entries", 0)
    metrics["exec.cache.entry_bytes"] = (traced["entry_bytes"] / entries
                                         if entries else 0.0)
    if "results" in traced:
        cached = sum(result.cached for result in traced["results"])
        metrics["exec.cache.hit_ratio"] = cached / len(traced["results"])

    if workload == "fuzz-campaign":
        tasks = traced["tasks"]
        metrics.update(_pool(rec, traced["campaign_start"]))
        generate = [s for s in rec.spans
                    if s["name"] == "fuzz.gen.generate_batch"]
        metrics["fuzz.gen.generate_s"] = sum(
            s["end"] - s["start"] for s in generate) / max(1, rec.generated)
        metrics["scenarios.generic.build_s"] = metrics["scenarios.build_s"]
        metrics["fuzz.harness.judge_s"] = median(
            [row["fuzz.harness.judge_s"] for row in rows.values()
             if "fuzz.harness.judge_s" in row])
        metrics["fuzz.harness.oracle_checked_share"] = \
            traced["summary"]["oracle_checked"] / tasks
    if workload == "serve-mixed":
        metrics.update(traced["serve_layers"])

    metrics["trace.overhead_s"] = traced["overhead_s"]
    for name in EXACT + _SERVE + _FUZZ:
        metrics.setdefault(name, 0.0)
    return metrics


def exact_counts(metrics: dict[str, float]) -> dict[str, float]:
    return {name: metrics[name] for name in EXACT}

