"""One batch flow for ``repro suite``, ``repro sweep`` and ``repro fuzz run``.

A campaign runs a list of task specs cache-first through
:func:`repro.exec.run_tasks` under one wall-clock timer (with an
optional judge, e.g. the fuzz oracle, inside the timed region), then
prints the task table and summary and writes whatever the command's
flags ask for:

* the ``--output`` task report (schema ``repro.exec.report`` v1);
* the merged run manifest (:mod:`repro.obs.manifest`), one row per
  task, carrying each task's judgment when the campaign was judged;
* a ``--record-bench`` row under the command's key of
  ``BENCH_perf.json``, through :func:`repro.perf.record_bench`.

The commands differ only in their specs, their extra tables and the
fields they add to each artifact.
"""

from __future__ import annotations

import argparse
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro import obs, perf
from repro.analysis import format_table
from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.pool import ExecResult, default_jobs, run_tasks
from repro.exec.spec import TaskSpec

#: Schema stamped into ``--output`` reports.
REPORT_SCHEMA = "repro.exec.report"
REPORT_VERSION = 1


def add_executor_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every batch command shares."""
    parser.add_argument("-j", "--jobs", type=int, default=None,
                        help="worker processes (default: min(4, cores); "
                             "1 = serial in-process)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root seed for per-task seed derivation "
                             "(default 0)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        help="content-addressed result cache directory "
                             f"(default {DEFAULT_CACHE_DIR})")
    parser.add_argument("--no-cache", action="store_true",
                        help="always re-simulate; do not read or write "
                             "the cache")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-task wall budget in seconds "
                             "(default: none)")
    parser.add_argument("--retries", type=int, default=1,
                        help="re-attempts per failed task (default 1)")
    parser.add_argument("--output", default="",
                        help="write the JSON task report to this path")


def open_cache(args: argparse.Namespace) -> ResultCache | None:
    """The result cache ``--cache-dir``/``--no-cache`` select."""
    return None if args.no_cache else ResultCache(args.cache_dir)


@dataclass
class Campaign:
    """One executed batch and what the command needs to report it."""

    command: str
    results: list[ExecResult]
    wall_s: float
    jobs: int
    cache: ResultCache | None
    #: The judge's summary (``judgments`` in submission order, plus
    #: whatever else it reports), or None for an unjudged batch.
    judged: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    def print_results(self) -> None:
        print(format_table(
            ["task", "scenario", "status", "source", "wall s", ""],
            [_result_row(r) for r in self.results]))

    def summarise(self) -> None:
        line = (f"\n{sum(1 for r in self.results if r.ok)}/"
                f"{len(self.results)} ok ({self.cached} from cache) "
                f"in {self.wall_s:.2f}s wall")
        if self.cache is not None:
            stats = self.cache.stats()
            line += (f"; cache hits {stats['hits']}, "
                     f"misses {stats['misses']}")
        print(line)
        for result in self.results:
            if not result.ok:
                last = (result.error or "").strip().splitlines()
                print(f"  FAILED {result.spec.task_id} ({result.status}): "
                      f"{last[-1] if last else 'no detail'}")

    def check_cached(self) -> bool:
        """``--assert-cached``: True when every task was a cache hit;
        otherwise prints the re-simulated tasks."""
        uncached = [r.spec.task_id for r in self.results if not r.cached]
        if uncached:
            print(f"\n--assert-cached: {len(uncached)} task(s) were "
                  f"re-simulated: {', '.join(uncached[:8])}"
                  + (" ..." if len(uncached) > 8 else ""))
        return not uncached

    def health(self) -> dict[str, Any] | None:
        """The per-task HealthReports carried in ok payloads, merged."""
        reports = {r.spec.task_id: r.payload["health"]
                   for r in self.results if r.ok and r.payload.get("health")}
        return obs.merge_health(reports) if reports else None

    def write_report(self, path: str, **extra: Any) -> None:
        """The ``--output`` task report, with the command's ``extra``
        top-level fields."""
        tasks = []
        for result in self.results:
            row: dict[str, Any] = {
                "task_id": result.spec.task_id,
                "scenario": result.spec.scenario,
                "params": dict(result.spec.params),
                "seed": result.spec.seed,
                "status": result.status,
                "cached": result.cached,
                "attempts": result.attempts,
                "wall_s": result.wall_s,
                "fingerprint": result.fingerprint,
            }
            if result.ok:
                row["metrics"] = result.payload["metrics"]
                row["probe_digests"] = result.payload["probe_digests"]
                if result.payload.get("series"):
                    row["series"] = result.payload["series"]
            else:
                row["error"] = result.error
            tasks.append(row)
        perf.write_report(path, {
            "schema": REPORT_SCHEMA,
            "version": REPORT_VERSION,
            "command": self.command,
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 4),
            "cache": self._cache_stats(),
            "tasks": tasks,
            **extra,
        })
        print(f"wrote {path}")

    def write_manifest(self, path: str, *, params: dict[str, Any],
                       seed: int, metrics: dict[str, float],
                       health: dict[str, Any] | None) -> None:
        """The merged run manifest: one provenance row per task."""
        judgments = (self.judged["judgments"] if self.judged is not None
                     else [None] * len(self.results))
        tasks = []
        for result, judgment in zip(self.results, judgments):
            row = {"task_id": result.spec.task_id,
                   "scenario": result.spec.scenario,
                   "status": result.status,
                   "fingerprint": result.fingerprint}
            if judgment is not None:
                row["classification"] = judgment["classification"]
            if result.ok and result.payload.get("health"):
                row["health"] = result.payload["health"]["verdict"]
            tasks.append(row)
        manifest = obs.build_manifest(
            command=self.command, params=params, seed=seed,
            metrics=metrics, wall_s=self.wall_s, tasks=tasks,
            execution={"jobs": self.jobs, "cached": self.cached,
                       "cache": self._cache_stats()},
            health=health)
        obs.write_manifest(path, manifest)
        print(f"wrote {path}")

    def record_bench(self, path: str, row: str, **fields: Any) -> None:
        """Merge one timing row, keyed ``row``, under the command's key
        of a ``BENCH_perf.json`` report."""
        # cpus is recorded because it decides whether -jN can help at
        # all: on one core the pool only adds overhead (PERFORMANCE.md)
        perf.record_bench(path, self.command, {row: {
            **fields, "cached": self.cached, "cpus": os.cpu_count(),
            "wall_s": round(self.wall_s, 2)}})
        print(f"recorded {self.command}.{row} in {path}")

    def _cache_stats(self) -> dict[str, int] | None:
        return self.cache.stats() if self.cache is not None else None


def _result_row(result: ExecResult) -> list[Any]:
    source = "cache" if result.cached else f"run x{result.attempts}"
    note = ""
    if not result.ok and result.error:
        note = result.error.strip().splitlines()[-1][:60]
    return [result.spec.task_id, result.spec.scenario, result.status,
            source, f"{result.wall_s:.2f}", note]


def run(command: str, specs: Iterable[TaskSpec], args: argparse.Namespace,
        *, judge: Callable[[list[ExecResult]], dict[str, Any]] | None = None,
        ) -> Campaign:
    """Run ``specs`` with the executor flags in ``args`` and time it.

    ``judge``, when given, runs inside the timed region on the results
    and its summary lands in :attr:`Campaign.judged`."""
    cache = open_cache(args)
    jobs = args.jobs if args.jobs is not None else default_jobs()
    # wall-clock read is the measurement itself (CLI layer); simulated
    # outcomes stay deterministic
    start = time.perf_counter()  # lint: disable=DET002
    results = run_tasks(specs, jobs=jobs, cache=cache,
                        timeout=args.timeout, retries=args.retries)
    judged = judge(results) if judge is not None else None
    wall_s = time.perf_counter() - start  # lint: disable=DET002
    return Campaign(command, results, wall_s, jobs, cache, judged)
