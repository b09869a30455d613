"""The host-speed reference the batch workloads scale their times by.

    python3 perfbench/calibrate.py       # serve requests on stdin

A shared host runs the benchmark's CPUs at a speed that moves by half
and more within minutes, as other tenants come and go, and a run's own
wall times move with it.  The reference is a fixed pure-Python loop (a
small discrete-event kernel: a heap of timed events, slotted objects,
float arithmetic, dict updates, the mix the simulator's hot path is made
of), timed right before and right after each task, on the CPU the task
runs on.  A task that took ``t`` seconds between loop times ``r0`` and
``r1`` is reported as ``t * REFERENCE_S / ((r0 + r1) / 2)``: the seconds
it would take on a host that runs the loop in ``REFERENCE_S``.

* The figure workloads run their tasks in the benchmark's process.  A
  :class:`Calibrator` child runs the loop on request; the two processes
  share one CPU and take turns.  The loop runs in its own process there,
  so nothing the program does to its interpreter (threads it starts,
  collector or trace settings) can slow the reference and hide itself.
* ``fuzz-campaign`` runs its tasks in pool workers.  :func:`in_workers`
  has ``run_tasks`` give its workers :func:`calibrated_execute_task`,
  which times the loop in the worker around each task.  There the loop
  shares the program's interpreter, so a change that slows every Python
  call in a worker (a trace hook, a busy thread) would slow the
  reference too; the figure workloads run the same layers and would
  show it.
* ``serve-mixed`` runs its jobs in the gateway.  The gateway runs on the
  :class:`Calibrator` child's CPU, and the client has the child time
  the loop in the gaps of the load when no job is in flight.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Iterable

#: Seconds one reference loop takes on the nominal host (the 2-CPU
#: x86-64 VM the benchmark was written on, at its fastest).
REFERENCE_S = 0.0085
#: Events the reference loop pushes through its heap.
REFERENCE_EVENTS = 12000
#: Loops a pool worker times on each side of a task.
WORKER_LOOPS = 3
#: Result key under which :func:`calibrated_execute_task` returns its
#: loop and task times.
REFS_KEY = "perfbench_refs"

_ORIGINAL_EXECUTE: list = []


class _Event:
    __slots__ = ("time", "kind", "value")

    def __init__(self, time_: float, kind: int, value: float) -> None:
        self.time, self.kind, self.value = time_, kind, value


def reference_loop(events: int = REFERENCE_EVENTS) -> float:
    """A fixed, deterministic pure-Python event loop."""
    heap: list = []
    rates: dict[int, float] = {}
    x, seq = 0.5, 0
    for i in range(64):
        heapq.heappush(heap, (i * 0.37 % 1.0, i, _Event(i * 0.5, i % 17, x)))
    for i in range(events):
        now, _, ev = heapq.heappop(heap)
        rate = rates.get(ev.kind, 1.0) * 0.9 + ev.value * 0.1
        rates[ev.kind] = rate
        x = (x * 3.7 + rate) % 1.0
        seq += 1
        heapq.heappush(heap, (now + x * 0.01 + 1e-6, 64 + seq,
                              _Event(now, (ev.kind + i) % 17, x)))
    return x


def timed_loop() -> float:
    """Wall seconds of one reference loop in this process."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def scaled(times: list[float], refs: list[float]) -> list[float]:
    """``times[i]`` at the nominal host speed, given the loop times
    ``refs[i]`` before and ``refs[i + 1]`` after it."""
    return [t * 2 * REFERENCE_S / (refs[i] + refs[i + 1])
            for i, t in enumerate(times)]


class Calibrator:
    """A reference-loop child process, kept on one CPU, ``cpu``.

    Use as a context manager; leaving it stops the child.  Inside
    :meth:`pinned`, this process runs on that CPU too."""

    def __init__(self) -> None:
        self.cpu = min(os.sched_getaffinity(0))
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self._proc.pid, {self.cpu})

    def measure(self) -> float:
        """Wall seconds the reference loop takes now."""
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write("run\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the calibration process exited")
        return float(line)

    @contextlib.contextmanager
    def pinned(self):
        """Run this process, and the processes it starts meanwhile, on
        the child's CPU."""
        mine = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            yield self
        finally:
            os.sched_setaffinity(0, mine)

    def close(self) -> None:
        try:
            if self._proc.stdin is not None:
                self._proc.stdin.close()
            self._proc.wait(60)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        finally:
            if self._proc.stdout is not None:
                self._proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def calibrated_execute_task(payload: dict[str, Any]) -> dict[str, Any]:
    """``execute_task`` between reference loops, for a pool worker:
    ``[fastest loop before, task, fastest loop after]`` seconds ride
    back in the result under ``REFS_KEY``.

    A worker's CPU runs at one of two speeds that change within seconds
    (on the 2-CPU VM the benchmark was written on, the loop took about
    9.6 or about 20 ms, and a worker that had waited for its next task
    often woke on the slow one); the fastest of ``WORKER_LOOPS`` loops
    on each side follows the task's own speed more closely than one
    loop does.  Each loop adds about ``REFERENCE_S`` of nominal time to
    the campaign, a constant per scenario."""
    before = min(timed_loop() for _ in range(WORKER_LOOPS))
    start = time.perf_counter()
    result = _ORIGINAL_EXECUTE[-1](payload)
    took = time.perf_counter() - start
    after = min(timed_loop() for _ in range(WORKER_LOOPS))
    result = dict(result)
    result[REFS_KEY] = [before, took, after]
    return result


@contextlib.contextmanager
def in_workers():
    """Have ``run_tasks`` hand its pool workers
    :func:`calibrated_execute_task` instead of ``execute_task``."""
    from repro.exec import pool

    _ORIGINAL_EXECUTE.append(pool.execute_task)
    pool.execute_task = calibrated_execute_task
    try:
        yield
    finally:
        pool.execute_task = _ORIGINAL_EXECUTE.pop()


def worker_factor(payloads: Iterable[dict[str, Any] | None]) -> float:
    """Nominal over measured host speed across the tasks that ran
    under :func:`in_workers`, each weighted by its time; takes the loop
    times out of the payloads."""
    nominal = measured = 0.0
    for payload in payloads:
        if payload is None or REFS_KEY not in payload:
            continue
        before, took, after = payload.pop(REFS_KEY)
        nominal += took * 2 * REFERENCE_S / (before + after)
        measured += took
    return nominal / measured if measured else 1.0


def _serve() -> int:
    timed_loop()
    for line in sys.stdin:
        if line.strip() != "run":
            break
        print(repr(timed_loop()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(_serve())
