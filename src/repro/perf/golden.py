"""Golden-trace capture: the determinism contract of the fast kernel.

"Fast must mean identical": every hot-path optimisation (the engine fast
path, cell-train transmitters, array-backed probes) is required to leave
the *simulated outcome* untouched, not approximately equal.  This module
turns a perf workload run into a compact trace that makes that claim
checkable and committable:

* every probe series is reduced to its **canonical step form** — the last
  value recorded at each distinct timestamp — and hashed over the raw
  IEEE-754 bytes of its times and values, so any numeric deviation,
  however small, changes the digest;
* the domain counters (cells sent/delivered/dropped per component) and
  the final simulation clock are recorded verbatim;
* ``executed_events`` pins the kernel's event structure (the count is
  invariant under ``advance_inline`` draining by construction, and
  changes only when transmitters genuinely merge or split events).

The committed fixtures under ``tests/golden/fixtures/`` were captured
from the pre-optimization kernel; the golden tests assert the current
kernel reproduces the probe digests, counters, and clock bit-exactly.
See docs/PERFORMANCE.md for the full invariant.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import islice
from operator import eq
from typing import Any

from repro.fluid.results import FluidRun, HybridRun
from repro.perf.workloads import WORKLOADS
from repro.scenarios.results import AtmRun, TcpRun
from repro.sim.probe import Probe

#: Fixture schema version; bump when the trace layout changes.
TRACE_VERSION = 1

#: Scale each workload's committed golden fixture is captured at — small
#: enough for tier-1, long enough to cross every hot-path regime (E01's
#: session join, E02's on/off toggles, E11's loss recovery).
GOLDEN_SCALES = {
    "e01_staggered": 0.4,
    "e02_onoff": 0.4,
    "e11_tcp": 0.2,
}


def canonical_series(probe: Probe) -> tuple[array, array]:
    """Reduce a probe to one (time, value) pair per distinct timestamp.

    Piecewise-constant semantics make the *last* value recorded at a
    timestamp the observable one (``value_at`` resolves ties that way),
    so the canonical form is invariant under the StepProbe same-timestamp
    coalescing the fast kernel performs — and bit-identical across
    kernel versions whenever the simulated outcome is.
    """
    # exact compare on purpose: only bit-identical timestamps are ties.
    # StepProbe coalesces them as it records, so one C-level pass
    # usually finds none and the columns are already canonical.
    if not any(map(eq, probe.times, islice(probe.times, 1, None))):
        return array("d", probe.times), array("d", probe.values)
    times = array("d")
    values = array("d")
    for t, v in zip(probe.times, probe.values):
        # exact compare on purpose: canonicalisation collapses samples
        # at bit-identical timestamps only
        if times and t == times[-1]:
            values[-1] = v
        else:
            times.append(t)
            values.append(v)
    return times, values


def probe_digest(probe: Probe) -> dict[str, Any]:
    """Length + sha256 over the canonical series' raw double bytes."""
    times, values = canonical_series(probe)
    digest = hashlib.sha256()
    digest.update(times)
    digest.update(values)
    return {
        "n": len(times),
        "sha256": digest.hexdigest(),
        "last": repr(values[-1]) if values else None,
    }


def atm_parts(run: AtmRun) -> tuple[dict, dict]:
    probes: dict[str, Probe] = {}
    counters: dict[str, Any] = {}
    for vc, session in sorted(run.net.sessions.items()):
        probes[session.acr_probe.name] = session.acr_probe
        probes[session.rate_probe.name] = session.rate_probe
        src, dst = session.source, session.destination
        counters[f"{vc}.cells_sent"] = src.cells_sent
        counters[f"{vc}.rm_sent"] = src.rm_sent
        counters[f"{vc}.out_of_rate_rm_sent"] = src.out_of_rate_rm_sent
        counters[f"{vc}.backward_rms_seen"] = src.backward_rms_seen
        counters[f"{vc}.data_received"] = dst.data_received
        counters[f"{vc}.rm_received"] = dst.rm_received
        counters[f"{vc}.acr_final"] = repr(src.acr)
    port = run.bottleneck
    probes[port.queue_probe.name] = port.queue_probe
    probes[port.abr_queue_probe.name] = port.abr_queue_probe
    if run.macr_probe is not None:
        probes[run.macr_probe.name] = run.macr_probe
    counters["bottleneck.arrivals"] = port.arrivals
    counters["bottleneck.departures"] = port.departures
    counters["bottleneck.drops"] = port.drops
    return probes, counters


def tcp_parts(run: TcpRun) -> tuple[dict, dict]:
    probes: dict[str, Probe] = {}
    counters: dict[str, Any] = {}
    for name, flow in sorted(run.net.flows.items()):
        probes[flow.goodput_probe.name] = flow.goodput_probe
        probes[flow.cwnd_probe.name] = flow.cwnd_probe
        counters[f"{name}.bytes_received"] = flow.sink.bytes_received
    port = run.bottleneck
    probes[port.queue_probe.name] = port.queue_probe
    if run.macr_probe is not None:
        probes[run.macr_probe.name] = run.macr_probe
    counters["bottleneck.arrivals"] = port.arrivals
    counters["bottleneck.departures"] = port.departures
    counters["bottleneck.drops"] = port.drops
    return probes, counters


def fluid_parts(run: FluidRun) -> tuple[dict, dict]:
    probes: dict[str, Probe] = {}
    counters: dict[str, Any] = {}
    for name, trunk in sorted(run.net.trunks.items()):
        probes[trunk.macr_probe.name] = trunk.macr_probe
        probes[trunk.queue_probe.name] = trunk.queue_probe
        probes[trunk.offered_probe.name] = trunk.offered_probe
        counters[f"{name}.queue_final"] = repr(trunk.queue_cells)
        counters[f"{name}.macr_final"] = repr(trunk.filter.macr)
    for cohort in run.net.cohorts:
        if len(cohort.rate_probe):
            probes[cohort.rate_probe.name] = cohort.rate_probe
        counters[f"{cohort.name}.acr_final"] = repr(cohort.acr)
    counters["steps"] = run.net.steps
    return probes, counters


def hybrid_parts(run: HybridRun) -> tuple[dict, dict]:
    """Packet foreground and fluid background, side by side.

    Probe names never collide: the coupled fluid trunks carry a
    ``:fluid`` suffix by convention (see
    :func:`repro.fluid.hybrid.hybrid_staggered`).
    """
    probes, counters = atm_parts(run.atm)
    fluid_probes, fluid_counters = fluid_parts(run.fluid)
    probes.update(fluid_probes)
    counters.update(fluid_counters)
    return probes, counters


def run_parts(run: Any) -> tuple[dict, dict]:
    """(probes by name, domain counters) for any supported run handle.

    Shared with :mod:`repro.exec.worker`, whose per-task golden probe
    digests must cover exactly the series the golden-trace suite gates.
    """
    if isinstance(run, AtmRun):
        return atm_parts(run)
    if isinstance(run, TcpRun):
        return tcp_parts(run)
    if isinstance(run, HybridRun):
        return hybrid_parts(run)
    if isinstance(run, FluidRun):
        return fluid_parts(run)
    raise TypeError(f"unsupported run handle {type(run).__name__}")


def trace_from_run(name: str, scale: float, run: Any) -> dict[str, Any]:
    """Build the golden trace dict for an executed workload run."""
    probes, counters = run_parts(run)
    # fluid runs have no event kernel; their clock is the step counter
    sim = getattr(run.net, "sim", None)
    now = repr(sim.now) if sim is not None else repr(run.net.now)
    events = sim.executed_events if sim is not None else run.net.steps
    return {
        "version": TRACE_VERSION,
        "workload": name,
        "scale": scale,
        "now": now,
        "executed_events": events,
        "counters": counters,
        "probes": {pname: probe_digest(p)
                   for pname, p in sorted(probes.items())},
    }


def capture(name: str, scale: float, tracer=None) -> dict[str, Any]:
    """Run workload ``name`` at ``scale`` and return its golden trace.

    ``tracer`` installs a :class:`repro.obs.Tracer` on the run, which
    lets the golden suite assert that observation changes no simulated
    outcome: the digests of a traced run must equal the untraced ones.
    """
    workload = WORKLOADS[name]
    run = workload.build_and_run(scale, tracer=tracer)
    return trace_from_run(name, scale, run)


def compare_traces(expected: dict[str, Any],
                   actual: dict[str, Any]) -> list[str]:
    """Field-by-field comparison; returns human-readable mismatches.

    An empty list means the traces are bit-identical in every gated
    field.  Informational fields (``*_preopt`` annotations) are ignored.
    """
    problems: list[str] = []
    for field in ("version", "workload", "scale", "now",
                  "executed_events"):
        if expected.get(field) != actual.get(field):
            problems.append(
                f"{field}: expected {expected.get(field)!r}, "
                f"got {actual.get(field)!r}")
    exp_counters = expected.get("counters", {})
    act_counters = actual.get("counters", {})
    for key in sorted(set(exp_counters) | set(act_counters)):
        if exp_counters.get(key) != act_counters.get(key):
            problems.append(
                f"counter {key}: expected {exp_counters.get(key)!r}, "
                f"got {act_counters.get(key)!r}")
    exp_probes = expected.get("probes", {})
    act_probes = actual.get("probes", {})
    for key in sorted(set(exp_probes) | set(act_probes)):
        a, b = exp_probes.get(key), act_probes.get(key)
        if a != b:
            problems.append(f"probe {key}: expected {a!r}, got {b!r}")
    return problems


def write_trace(path: str, trace: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_trace(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fixture_names() -> list[str]:
    """Workload names in deterministic order (fixture enumeration)."""
    return sorted(WORKLOADS)
