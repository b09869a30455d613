"""Perf measurement runner: events/sec, cells/sec, wall time.

Runs the :mod:`repro.perf.workloads` configurations under a wall-clock
timer and records the numbers that define the repository's performance
trajectory.  ``repro perf`` writes them to ``BENCH_perf.json`` at the
repo root; the CI smoke job re-runs the suite at a reduced scale and
fails when the machine-normalised cost (wall seconds per simulated
second) regresses by more than the configured factor against the
committed baseline.

Wall time is machine-dependent; ``wall_per_sim_sec`` divides it by the
simulated horizon so baselines captured at ``scale=1`` remain comparable
with smoke runs at ``scale=0.2``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from typing import Any, Iterable

from repro.perf.workloads import WORKLOADS

#: Default output file, at the repository root by convention.
DEFAULT_OUTPUT = "BENCH_perf.json"
#: CI fails when wall_per_sim_sec exceeds baseline by this factor.
DEFAULT_REGRESSION_FACTOR = 2.0
#: Default append-only measurement log (``repro perf --record``).
DEFAULT_HISTORY = "BENCH_history.jsonl"
#: ``--record`` warns (without failing) past a 20% wall/sim-sec drift
#: against the committed baseline — tighter than the CI gate, so slow
#: creep surfaces in the log before it trips the 2x hard limit.
HISTORY_WARN_FACTOR = 1.2


def measure(name: str, scale: float = 1.0, repeats: int = 1) -> dict[str, Any]:
    """Run workload ``name`` ``repeats`` times; report the best wall time.

    Best-of-N is the standard noise reducer for wall-clock benchmarks:
    interference only ever makes a run slower.
    """
    workload = WORKLOADS[name]
    best_wall = None
    run = None
    # wall-clock reads are the whole point of a benchmark runner; the
    # simulated outcome itself stays deterministic (the golden tests
    # prove it), so the determinism rule is waived here only
    for _ in range(max(1, repeats)):
        start = time.perf_counter()  # lint: disable=DET002
        run = workload.build_and_run(scale)
        wall = time.perf_counter() - start  # lint: disable=DET002
        if best_wall is None or wall < best_wall:
            best_wall = wall
    sim = run.net.sim
    cells = workload.cells(run)
    sim_seconds = workload.sim_seconds * scale
    return {
        "description": workload.description,
        "scale": scale,
        "sim_seconds": sim_seconds,
        "wall_s": round(best_wall, 4),
        "wall_per_sim_sec": round(best_wall / sim_seconds, 4),
        "events": sim.executed_events,
        "events_per_sec": round(sim.executed_events / best_wall),
        "cells": cells,
        "cells_per_sec": round(cells / best_wall),
    }


def run_suite(names: Iterable[str] | None = None, scale: float = 1.0,
              repeats: int = 1) -> dict[str, Any]:
    """Measure every requested workload and assemble the report."""
    selected = sorted(names) if names else sorted(WORKLOADS)
    unknown = [n for n in selected if n not in WORKLOADS]
    if unknown:
        raise KeyError(f"unknown workload(s): {', '.join(unknown)}; "
                       f"known: {', '.join(sorted(WORKLOADS))}")
    return {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workloads": {name: measure(name, scale=scale, repeats=repeats)
                      for name in selected},
    }


def environment_mismatches(current: dict[str, Any],
                           baseline: dict[str, Any]) -> list[str]:
    """Environment fields on which ``current`` and ``baseline`` disagree.

    Wall-clock numbers only gate meaningfully against a baseline captured
    on a comparable host; a baseline from another machine or interpreter
    should be *flagged*, not silently compared.  Returns one line per
    differing field (empty = same recorded environment); fields absent
    from either report (pre-versioned baselines) are not flagged.
    """
    notes: list[str] = []
    for field in ("python", "machine"):
        ours = current.get(field)
        theirs = baseline.get(field)
        if ours and theirs and ours != theirs:
            notes.append(f"{field}: baseline recorded {theirs!r}, "
                         f"this host reports {ours!r}")
    return notes


def check_regression(current: dict[str, Any], baseline: dict[str, Any],
                     factor: float = DEFAULT_REGRESSION_FACTOR) -> list[str]:
    """Compare normalised wall cost against a baseline report.

    Returns one message per workload whose ``wall_per_sim_sec`` exceeds
    ``factor`` times the baseline's.  Workloads missing from either side
    are skipped (the baseline gates what it measured, nothing more).
    """
    problems: list[str] = []
    base_workloads = baseline.get("workloads", {})
    for name, entry in sorted(current.get("workloads", {}).items()):
        base = base_workloads.get(name)
        if base is None or "wall_per_sim_sec" not in base:
            continue
        allowed = base["wall_per_sim_sec"] * factor
        got = entry["wall_per_sim_sec"]
        if got > allowed:
            problems.append(
                f"{name}: wall/sim-sec {got:.3f} exceeds {factor:g}x "
                f"baseline ({base['wall_per_sim_sec']:.3f})")
    return problems


def history_entry(report: dict[str, Any]) -> dict[str, Any]:
    """One append-only log row: environment stamp + normalised costs.

    Keeps only the fields a trend plot needs (``wall_per_sim_sec`` is
    the machine-normalised series; ``wall_s``/``events_per_sec`` give
    it scale), not the whole report, so the log stays greppable.
    """
    return {
        # the timestamp is provenance for whoever reads the log — it is
        # never replayed, so the wall-clock read is as legitimate here
        # as the measurement itself
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": report.get("python"),
        "machine": report.get("machine"),
        "cpus": os.cpu_count(),
        "workloads": {
            name: {"scale": entry.get("scale"),
                   "wall_s": entry.get("wall_s"),
                   "wall_per_sim_sec": entry.get("wall_per_sim_sec"),
                   "events_per_sec": entry.get("events_per_sec")}
            for name, entry in sorted(
                report.get("workloads", {}).items())},
    }


def append_history(path: str, report: dict[str, Any]) -> dict[str, Any]:
    """Append the report's :func:`history_entry` to the JSONL log."""
    entry = history_entry(report)
    with open(path, "a", encoding="utf-8") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")
    return entry


def read_history(path: str) -> list[dict[str, Any]]:
    """All recorded rows, oldest first (blank lines skipped)."""
    rows: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def history_drift(current: dict[str, Any], baseline: dict[str, Any],
                  factor: float = HISTORY_WARN_FACTOR) -> list[str]:
    """Soft drift warnings for ``--record``: :func:`check_regression`
    at the tighter history threshold."""
    return check_regression(current, baseline, factor=factor)


def write_report(path: str, report: dict[str, Any]) -> None:
    """Write ``report`` as indented, key-sorted JSON, atomically.

    The bytes go to a temp file beside ``path`` and replace it in one
    ``os.replace``, so an interrupted write never leaves a truncated
    file behind."""
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def read_report(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def record_bench(path: str, key: str, rows: dict[str, Any], *,
                 stamp: dict[str, Any] | None = None) -> None:
    """Merge ``rows`` under ``key`` of the bench report at ``path``.

    The one writer of ``BENCH_perf.json`` (layout in
    docs/PERFORMANCE.md): every other key, and every row of ``key`` not
    in ``rows``, is kept.  ``stamp`` sets top-level environment fields
    (``repro perf``'s ``python``/``machine``).  A missing file starts a
    fresh report; a file that is not a JSON object of keyed rows is
    refused with ``SystemExit`` and left untouched.
    """
    try:
        report = read_report(path)
    except FileNotFoundError:
        report = {}
    except ValueError as exc:
        raise SystemExit(f"refusing to overwrite {path}: not JSON "
                         f"({exc})") from exc
    if not isinstance(report, dict) \
            or not isinstance(report.get(key, {}), dict):
        raise SystemExit(f"refusing to overwrite {path}: expected a JSON "
                         f"object with an object under {key!r}")
    report.update(stamp or {})
    report.setdefault(key, {}).update(rows)
    write_report(path, report)
