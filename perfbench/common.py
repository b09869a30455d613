"""Paths, statistics and process helpers shared by every workload.

The benchmark runs from the root of a checkout and imports the program
from its ``src/`` tree; every file it writes lands under ``OUT`` inside
that checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
#: Scratch space for caches and traces (listed in the root .gitignore).
OUT = ROOT / ".perfbench-out"

#: Worker processes and client threads: one per CPU.
NPROC = os.cpu_count() or 1


class CheckoutError(RuntimeError):
    """The program's sources are not where the benchmark expects them."""


def require_program() -> None:
    """Put ``src/`` on the import path, or fail if it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(
            f"no program sources at {SRC}/repro; run from the root of a "
            f"checkout that holds src/")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def program_env() -> dict[str, str]:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    return env


def fresh_dir(prefix: str) -> Path:
    OUT.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))


def remove_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def cache_entry_bytes(root: Path) -> tuple[int, int]:
    """``(entries, bytes)`` of a result-cache directory."""
    sizes = [path.stat().st_size for path in root.rglob("*.json")]
    return len(sizes), sum(sizes)


def spec_key(spec) -> str:
    """Stable key for a task's expected outputs (its canonical form)."""
    return hashlib.sha256(spec.canonical().encode()).hexdigest()[:20]


def outputs_digest(payload: dict) -> str:
    """One sha256 over a task's executed-event count and probe digests,
    the outputs every correctness check compares."""
    material = json.dumps([payload["executed_events"],
                           payload["probe_digests"]],
                          sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


def load_expected(name: str) -> dict:
    with open(EXPECTED / name, encoding="utf-8") as fh:
        return json.load(fh)


def prepare(specs) -> None:
    """What a run does before its first operation: import the executor
    and fingerprint every spec, which builds the source index.  Timed
    by ``setup_s``; done before any timed pass so no pass pays it."""
    import repro.exec.pool  # noqa: F401 - the executor a run imports
    from repro.exec.fingerprint import default_index, task_fingerprint

    index = default_index()
    for spec in specs:
        task_fingerprint(spec, index=index)


def write_expected(name: str, data: dict) -> None:
    EXPECTED.mkdir(exist_ok=True)
    with open(EXPECTED / name, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(values: Sequence[float], beyond: int = 10
         ) -> tuple[float, float, int]:
    """``(value, percentile, samples)``: the highest percentile that has
    at least ``beyond`` samples above it.  With fewer than ``2 * beyond
    + 1`` samples that percentile would not lie above the median, so the
    maximum is reported instead."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - 1 - beyond if n > 2 * beyond else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def time_until_line(argv: list[str], marker: str, *,
                    timeout_s: float = 60.0, keep: bool = False,
                    exits: bool = False) -> tuple[float, subprocess.Popen]:
    """Start ``argv`` and time it until a stdout line contains
    ``marker``.  Unless ``keep``, the process is then reaped: awaited
    when it ``exits`` by itself, else stopped."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=program_env(),
                            stdout=subprocess.PIPE, text=True)
    settled = threading.Event()
    proc.marker_line = None  # type: ignore[attr-defined]

    def watch() -> None:
        assert proc.stdout is not None
        for line in proc.stdout:
            if marker in line and not settled.is_set():
                proc.marker_line = line  # type: ignore[attr-defined]
                settled.set()
        settled.set()              # EOF: the process has exited

    reader = threading.Thread(target=watch, daemon=True)
    reader.start()
    proc.reader = reader  # type: ignore[attr-defined]
    settled.wait(timeout_s)
    elapsed = time.perf_counter() - start
    found = proc.marker_line is not None  # type: ignore[attr-defined]
    if not found or not keep:
        stop(proc, grace_s=timeout_s if found and exits else 0.0)
    if not found:
        raise RuntimeError(f"{' '.join(argv[:4])} did not print "
                           f"{marker!r} within {timeout_s:g}s")
    return elapsed, proc


def stop(proc: subprocess.Popen, timeout_s: float = 60.0,
         grace_s: float = 0.0) -> int:
    """Reap ``proc``: let it exit for ``grace_s``, then SIGTERM, then
    SIGKILL."""
    if grace_s > 0:
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    reader = getattr(proc, "reader", None)
    if reader is not None:
        reader.join(timeout_s)
    return proc.returncode


def setup_seconds(argv: list[str], marker: str, repeats: int, *,
                  exits: bool, calibrator) -> float:
    """Median set-up time over ``repeats`` fresh processes, each scaled
    to the nominal host speed by the reference loop timed on either
    side of it."""
    from calibrate import scaled

    times, refs = [], [calibrator.measure()]
    for _ in range(repeats):
        times.append(time_until_line(argv, marker, exits=exits)[0])
        refs.append(calibrator.measure())
    return median(scaled(times, refs))


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (``RUSAGE_SELF``) or of its
    largest reaped child (``RUSAGE_CHILDREN``), in MiB."""
    return resource.getrusage(who).ru_maxrss / 1024.0
