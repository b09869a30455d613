"""Traced runs: in-memory spans, per-layer profiles and a Chrome trace.

Tracing measures the program from outside.  :func:`install` replaces a
fixed set of public functions and methods with wrappers that record a
span (name, start, end, parent span, task id, pid, thread) around each
call and, when asked, run a deterministic ``cProfile`` over every
simulate call (``Simulator.run``).  Nothing inside ``src/`` changes; :func:`uninstall`
restores the originals.

The wrappers live at module level because pool workers receive
:func:`traced_execute_task` by name.  Workers are forked after
:func:`install`, so they inherit the patches; each worker ships the
spans and profile of a task back inside that task's payload (key
``"perfbench"``), and the parent merges them with :func:`absorb`.
"""

from __future__ import annotations

import cProfile
import dataclasses
import functools
import itertools
import json
import os
import pstats
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

#: Modules whose self time is reported on its own; every other module of
#: a listed package folds into the package, the rest of ``repro`` into
#: ``other`` and everything outside it (stdlib, builtins) into
#: ``builtins``.
LAYER_MODULES = ("sim.engine", "sim.probe", "atm.port", "atm.endsystem",
                 "atm.link", "atm.switch", "tcp.router", "tcp.link",
                 "tcp.reno", "tcp.sink", "tcp.phantom_router")
LAYER_PACKAGES = ("core", "baselines")
LAYERS = LAYER_MODULES + LAYER_PACKAGES + ("other", "builtins")

_HEAP_OPS = ("<built-in method _heapq.heappush>",
             "<built-in method _heapq.heappop>")
_ARRAY_APPEND = "<method 'append' of 'array.array' objects>"

#: Run-handle methods that reduce a run to its summary metrics.
_REDUCERS = {"AtmRun": ("steady_window", "steady_rates", "jain",
                        "utilization", "queue_stats"),
             "TcpRun": ("goodputs", "jain", "total_goodput",
                        "queue_stats")}
REDUCE_PREFIX = "scenarios.results."


class LayerProfile:
    """Self time and call counts of simulate calls, grouped by layer."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.heap_ops = 0
        self.probe_records = 0

    def add_stats(self, stats: dict,
                  layer_of: Callable[[str], str]) -> None:
        inline_appends = 0
        for (filename, _line, func), row in stats.items():
            _cc, ncalls, tottime, _ct, callers = row
            layer = layer_of(filename)
            self.self_s[layer] += tottime
            self.calls[layer] += ncalls
            if func in _HEAP_OPS:
                self.heap_ops += ncalls
            elif func == _ARRAY_APPEND:
                # hot paths append (time, value) pairs straight onto a
                # StepProbe's arrays; StepProbe.record's own appends are
                # already counted as record calls
                inline_appends += sum(
                    counts[0] for caller, counts in callers.items()
                    if layer_of(caller[0]) != "sim.probe")
            elif func == "record" and layer == "sim.probe":
                self.probe_records += ncalls
        self.probe_records += inline_appends // 2

    def merge(self, other: dict) -> None:
        for layer, value in other["self_s"].items():
            self.self_s[layer] += value
        for layer, value in other["calls"].items():
            self.calls[layer] += value
        self.heap_ops += other["heap_ops"]
        self.probe_records += other["probe_records"]

    def to_dict(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "heap_ops": self.heap_ops,
                "probe_records": self.probe_records}

    def shares(self) -> dict[str, float]:
        total = sum(self.self_s.values()) or 1.0
        return {layer: self.self_s.get(layer, 0.0) / total
                for layer in LAYERS}


class Recorder:
    """Spans and layer profiles of one process, kept in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: Set in a forked pool worker once the inherited records are
        #: dropped.
        self.worker_pid: int | None = None
        self.spans: list[dict[str, Any]] = []
        self.profile = LayerProfile()
        #: Bytes fed to sha256 by ``probe_digest``, per task.
        self.bytes_hashed: dict[str, int] = defaultdict(int)
        #: Task of each fingerprint, so cache calls join their task.
        self.fingerprints: dict[str, str] = {}
        #: ``(executed events, cells through the bottleneck)`` per
        #: simulated task.
        self.work: dict[str, tuple[int, int]] = {}
        #: Specs returned by ``generate_batch``.
        self.generated = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[tuple[str, str | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_task(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn: Callable, args, kwargs,
             task: str | None = None):
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        if task is None and stack:
            task = stack[-1][1]
        sid = f"{os.getpid()}.{next(self._ids)}"
        stack.append((sid, task))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "name": name, "id": sid, "parent": parent, "task": task,
                "start": start, "end": end, "pid": os.getpid(),
                "tid": threading.get_ident()})

    def add_profile(self, profiler: cProfile.Profile) -> None:
        stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
        with self._lock:
            self.profile.add_stats(stats, _layer_of)

    def take(self) -> dict[str, Any]:
        """Everything recorded so far, then start afresh (workers)."""
        with self._lock:
            out = {"spans": self.spans,
                   "profile": self.profile.to_dict(),
                   "bytes_hashed": dict(self.bytes_hashed),
                   "work": dict(self.work)}
            self.spans = []
            self.profile = LayerProfile()
            self.bytes_hashed = defaultdict(int)
            self.work = {}
        return out

    def absorb(self, shipped: dict[str, Any]) -> None:
        with self._lock:
            self.spans.extend(shipped["spans"])
            self.profile.merge(shipped["profile"])
            for task, count in shipped["bytes_hashed"].items():
                self.bytes_hashed[task] += count
            self.work.update(
                (task, tuple(pair)) for task, pair in shipped["work"].items())


_RECORDER: Recorder | None = None
_ORIGINALS: list[tuple[Any, str, Any]] = []


def recorder() -> Recorder:
    if _RECORDER is None:
        raise RuntimeError("tracing is not installed")
    return _RECORDER


@functools.lru_cache(maxsize=None)
def _repro_dir() -> str:
    import repro
    return str(Path(repro.__file__).resolve().parent) + os.sep


@functools.lru_cache(maxsize=4096)
def _layer_of(filename: str) -> str:
    path = str(Path(filename).resolve()) if filename != "~" else filename
    base = _repro_dir()
    if not path.startswith(base):
        return "builtins"
    module = path[len(base):].removesuffix(".py").replace(os.sep, ".")
    if module in LAYER_MODULES:
        return module
    package = module.split(".", 1)[0]
    return package if package in LAYER_PACKAGES else "other"


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _patch(owner: Any, attr: str, replacement: Any) -> None:
    _ORIGINALS.append((owner, attr, getattr(owner, attr)))
    setattr(owner, attr, replacement)


def _original(owner: Any, attr: str) -> Any:
    for patched_owner, patched_attr, original in _ORIGINALS:
        if patched_owner is owner and patched_attr == attr:
            return original
    raise KeyError(f"{owner!r}.{attr} is not patched")


def _spanned(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder().call(name, fn, args, kwargs)
    return wrapper


def _profiled_run(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def run(*args, **kwargs):
        rec = recorder()
        profiler = cProfile.Profile()

        def profiled(*args, **kwargs):
            # enabled inside the span, so the recorder is not profiled
            profiler.enable()
            try:
                return fn(*args, **kwargs)
            finally:
                profiler.disable()

        try:
            return rec.call("sim.run", profiled, args, kwargs)
        finally:
            rec.add_profile(profiler)
    return run


def _counted_digest(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def probe_digest(probe):
        rec = recorder()
        digest = rec.call("perf.golden.probe_digest", fn, (probe,), {})
        # sha256 runs over the canonical times and values, 8 bytes each
        with rec._lock:
            rec.bytes_hashed[rec.current_task() or ""] += 16 * digest["n"]
        return digest
    return probe_digest


def _spanned_fingerprint(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def task_fingerprint(spec, *args, **kwargs):
        rec = recorder()
        fingerprint = rec.call("exec.fingerprint.task", fn,
                               (spec,) + args, kwargs, task=spec.task_id)
        rec.fingerprints[fingerprint] = spec.task_id
        return fingerprint
    return task_fingerprint


def _spanned_cache(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def method(self, fingerprint, *args, **kwargs):
        rec = recorder()
        return rec.call(name, fn, (self, fingerprint) + args, kwargs,
                        task=rec.fingerprints.get(fingerprint))
    return method


def _spanned_generate(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def generate_batch(*args, **kwargs):
        rec = recorder()
        specs = rec.call("fuzz.gen.generate_batch", fn, args, kwargs)
        rec.generated += len(specs)
        return specs
    return generate_batch


def _spanned_judgment(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def classify_result(result, *args, **kwargs):
        return recorder().call("fuzz.harness.classify", fn,
                               (result,) + args, kwargs,
                               task=result.spec.task_id)
    return classify_result


def _spanned_entry(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def entry(**kwargs):
        rec = recorder()
        run = rec.call("scenarios.entry", fn, (), kwargs)
        sim = getattr(run.net, "sim", None)
        bottleneck = getattr(run, "bottleneck", None)
        if sim is not None and bottleneck is not None:
            rec.work[rec.current_task() or ""] = (sim.executed_events,
                                                  bottleneck.arrivals)
        return run
    return entry


def _spanned_entries(fn: Callable) -> Callable:
    """``get_scenario`` whose entry call is a span (build + simulate)."""
    @functools.wraps(fn)
    def get_scenario(name):
        entry = fn(name)
        return dataclasses.replace(entry, fn=_spanned_entry(entry.fn))
    return get_scenario


def traced_execute_task(payload: dict[str, Any]) -> dict[str, Any]:
    """``execute_task`` as one span whose id every inner span shares."""
    from repro.exec import pool

    rec = recorder()
    if os.getpid() != rec.pid and rec.worker_pid != os.getpid():
        # a forked worker starts with a copy of the parent's records
        rec.take()
        rec.worker_pid = os.getpid()
    original = _original(pool, "execute_task")
    result = rec.call("exec.worker.execute_task", original, (payload,),
                      {}, task=payload["spec"]["task_id"])
    if os.getpid() != rec.pid:
        result = dict(result)
        result["perfbench"] = rec.take()
    return result


def install(profile: bool = False) -> Recorder:
    """Patch the traced calls and return the process's recorder.

    With ``profile`` every simulate call also runs under ``cProfile``,
    which inflates its wall time several-fold: a profiled run yields
    layer shares and call counts, an unprofiled one span timings."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("tracing is already installed")
    from repro.exec import cache, pool, worker
    from repro.fuzz import gen, harness
    from repro.scenarios import results
    from repro.sim import engine

    _RECORDER = Recorder()
    _patch(pool, "execute_task", traced_execute_task)
    _patch(pool, "task_fingerprint",
           _spanned_fingerprint(pool.task_fingerprint))
    _patch(cache.ResultCache, "get",
           _spanned_cache("exec.cache.get", cache.ResultCache.get))
    _patch(cache.ResultCache, "put",
           _spanned_cache("exec.cache.put", cache.ResultCache.put))
    _patch(worker, "get_scenario", _spanned_entries(worker.get_scenario))
    _patch(worker, "run_parts",
           _spanned("perf.golden.run_parts", worker.run_parts))
    _patch(worker, "probe_digest", _counted_digest(worker.probe_digest))
    _patch(worker, "build_health",
           _spanned("obs.health.build", worker.build_health))
    run = engine.Simulator.run
    _patch(engine.Simulator, "run", _profiled_run(run) if profile
           else _spanned("sim.run", run))
    _patch(gen, "generate_batch", _spanned_generate(gen.generate_batch))
    _patch(harness, "classify_result",
           _spanned_judgment(harness.classify_result))
    for cls_name, methods in _REDUCERS.items():
        cls = getattr(results, cls_name)
        for method in methods:
            _patch(cls, method, _spanned(REDUCE_PREFIX + method,
                                         getattr(cls, method)))
    return _RECORDER


def uninstall() -> None:
    global _RECORDER
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    _RECORDER = None


def absorb_payloads(payloads: Iterable[dict | None]) -> None:
    """Merge what pool workers shipped back inside task payloads (a
    no-op when tracing is not installed)."""
    for payload in payloads:
        if _RECORDER is not None and payload is not None \
                and "perfbench" in payload:
            _RECORDER.absorb(payload.pop("perfbench"))


def traced_repeats(run_once: Callable[[], Any]):
    """``run_once()`` untraced, with spans, then with spans and a
    profile: ``(plain, (recorder, traced), (recorder, profiled))``."""
    plain = run_once()
    repeats = []
    for profile in (False, True):
        rec = install(profile=profile)
        try:
            repeats.append((rec, run_once()))
        finally:
            uninstall()
    return plain, repeats[0], repeats[1]


# ----------------------------------------------------------------------
# reduction to per-task layer timings
# ----------------------------------------------------------------------
def per_task(spans: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per task id: seconds by layer metric (see README.md)."""
    by_id = {span["id"]: span for span in spans}
    tasks: dict[str, dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    for span in spans:
        task = span["task"]
        if task is None:
            continue
        duration = span["end"] - span["start"]
        name = span["name"]
        row = tasks[task]
        if name == "scenarios.entry":
            row["scenarios.build_s"] += duration
        elif name == "sim.run":
            row["sim.run_s"] += duration
            row["scenarios.build_s"] -= duration
        elif name in ("perf.golden.run_parts", "perf.golden.probe_digest"):
            row["perf.golden.digest_s"] += duration
        elif name == "obs.health.build":
            row["obs.health.build_s"] += duration
        elif name == "exec.fingerprint.task":
            row["exec.fingerprint.task_s"] += duration
        elif name == "exec.cache.get":
            row["exec.cache.get_s"] += duration
        elif name == "exec.cache.put":
            row["exec.cache.put_s"] += duration
        elif name == "fuzz.harness.classify":
            row["fuzz.harness.judge_s"] += duration
        elif name.startswith(REDUCE_PREFIX):
            parent = by_id.get(span["parent"])
            # a reducer called by another reducer or by the health
            # judge is not the worker's own reduce step
            if parent is not None \
                    and parent["name"] == "exec.worker.execute_task":
                row["scenarios.results.reduce_s"] += duration
    return {task: dict(row) for task, row in tasks.items()}


def write_chrome(path: Path, spans: list[dict[str, Any]],
                 extra: dict[str, Any]) -> None:
    """Spans as Chrome ``trace_event`` complete events (Perfetto)."""
    events: list[dict[str, Any]] = []
    if spans:
        origin = min(span["start"] for span in spans)
        tids: dict[tuple[int, int], int] = {}
        for span in sorted(spans, key=lambda s: s["start"]):
            key = (span["pid"], span["tid"])
            tid = tids.setdefault(key, len(tids) + 1)
            events.append({
                "name": span["name"], "cat": span["name"].split(".")[0],
                "ph": "X", "pid": span["pid"], "tid": tid,
                "ts": (span["start"] - origin) * 1e6,
                "dur": (span["end"] - span["start"]) * 1e6,
                "args": {"task": span["task"], "id": span["id"],
                         "parent": span["parent"]}})
        for pid in sorted({pid for pid, _ in tids}):
            events.append({"ph": "M", "name": "process_name", "pid": pid,
                           "args": {"name": f"pid {pid}"}})
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": extra}, fh)
        fh.write("\n")
