"""Streaming invariant monitors.

The paper's claims are invariants — cells are conserved, queues stay
bounded, per-session rates converge to the phantom-adjusted max-min
allocation — and this module turns each into a machine-checkable
*monitor*.  Two complementary modes:

* **Streaming** — :class:`QueueWatch` subscribes to the
  :class:`~repro.obs.trace.Tracer` bus (``Tracer.subscribe``) and
  watches queue-length fields as events are emitted, recording the
  *first-violation timestamp* per component.  Subscription swaps the
  tracer's append target, so runs without monitors pay nothing, and
  observers never touch simulator state — the golden-digest suite
  proves monitored and unmonitored runs bit-identical.
* **Finalize** — the ``*_check`` functions fold a completed run handle
  (packet, TCP, fluid, or hybrid) into one verdict dict each.  The
  conservation ledger is *exact integer arithmetic* over the ports'
  own counters; the rate checks read the recorded probe series.

Each check returns the same shape::

    {"name": ..., "verdict": "pass" | "violated" | "not-applicable",
     "first_violation_ts": float | None, "evidence": {...}}

:mod:`repro.obs.health` assembles the checks into a schema'd
``HealthReport``; the worst-case queue bound follows Vandalore et
al.'s transient-backlog argument (PAPERS.md), and the oracle rates come
from :mod:`repro.core.fairness` (Fahmy et al.'s centralized algorithm).
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.analysis.metrics import convergence_time, jain_index
from repro.sim import units
from repro.sim.probe import Probe

#: Verdict vocabulary, from best to worst.
PASS = "pass"
NOT_APPLICABLE = "not-applicable"
VIOLATED = "violated"

#: Default ε-band half-width for the convergence/fairness checks: the
#: measured value must land within ±5% of the oracle allocation.
DEFAULT_EPS = 0.05

#: Post-settling peak-to-peak ACR swing allowed, as a multiple of the
#: ε-band *width* (a signal that settles into the band may still use
#: the whole band, i.e. swing 2·ε·target).
OSCILLATION_BAND_FACTOR = 2.0

#: Safety multiple on the Vandalore transient window.  Calibrated so
#: the committed E01–E26 scenarios pass with roughly 2x headroom while
#: sustained queue growth (an overload mis-provisioning, a broken
#: control loop) still trips the bound well inside a run.
VANDALORE_SAFETY = 6.0


def check(name: str, verdict: str,
          evidence: Mapping[str, Any] | None = None,
          first_violation_ts: float | None = None) -> dict[str, Any]:
    """One monitor outcome in the HealthReport check shape."""
    if verdict not in (PASS, VIOLATED, NOT_APPLICABLE):
        raise ValueError(f"unknown verdict {verdict!r}")
    return {"name": name, "verdict": verdict,
            "first_violation_ts": first_violation_ts,
            "evidence": dict(evidence or {})}


#: Wire size assumed when bounding a packet-tier queue in packets (the
#: TCP scenarios' MSS + headers, i.e. one full-sized segment).
PACKET_BITS = 8 * 1500


def vandalore_bound(capacity_mbps: float, interval_s: float,
                    feedback_delay_s: float = 0.0, sessions: int = 1,
                    safety: float = VANDALORE_SAFETY,
                    bits_per_unit: int = units.CELL_BITS) -> float:
    """Worst-case transient backlog, after Vandalore et al.

    Sources can overshoot a port for about one feedback delay plus one
    measurement interval per competing session before the explicit rate
    reins them in; the backlog accumulated in that window is bounded by
    the line rate times the window.  ``safety`` absorbs the staircase
    effects (sources step at RM granularity, filters at Δt granularity)
    the clean argument ignores.  The result is in queue units of
    ``bits_per_unit`` bits — cells by default, :data:`PACKET_BITS` for
    the TCP tier.
    """
    if capacity_mbps <= 0:
        raise ValueError(
            f"capacity must be positive, got {capacity_mbps!r}")
    window = safety * (feedback_delay_s + interval_s) * max(1, sessions)
    return capacity_mbps * 1e6 * window / bits_per_unit


# ----------------------------------------------------------------------
# streaming monitors (Tracer.subscribe observers)
# ----------------------------------------------------------------------
class QueueWatch:
    """Streaming queue-boundedness monitor.

    Subscribed to a tracer, it watches every event carrying a queue
    length — ``qlen`` on the packet tiers, ``queue`` on the fluid
    tier's ``fluid.step`` — and records the running peak and the first
    timestamp each component exceeded ``bound_cells``.  Read-only by
    construction: it looks at the already-recorded tuple and keeps its
    own tallies.
    """

    def __init__(self, bound_cells: float):
        if bound_cells <= 0:
            raise ValueError(
                f"bound must be positive, got {bound_cells!r}")
        self.bound_cells = bound_cells
        self.peak: dict[str, float] = {}
        self.first_violation: dict[str, float] = {}

    def observe(self, record: tuple[float, str, str, dict]) -> None:
        ts, _kind, comp, fields = record
        qlen = fields.get("qlen")
        if qlen is None:
            qlen = fields.get("queue")
            if qlen is None:
                return
        if qlen > self.peak.get(comp, 0.0):
            self.peak[comp] = qlen
            if qlen > self.bound_cells \
                    and comp not in self.first_violation:
                self.first_violation[comp] = ts

    def as_check(self) -> dict[str, Any]:
        """Fold the watch into a ``queue_bound`` check dict."""
        first = (min(self.first_violation.values())
                 if self.first_violation else None)
        verdict = VIOLATED if self.first_violation else PASS
        return check("queue_bound", verdict,
                     evidence={"bound_cells": self.bound_cells,
                               "peak": dict(sorted(self.peak.items())),
                               "violations": dict(sorted(
                                   self.first_violation.items()))},
                     first_violation_ts=first)


class DropWatch:
    """Streaming drop ledger: first drop timestamp and count per port.

    Complements the finalize-time conservation ledger with the *when*:
    the exact integer ledger proves nothing was lost unaccounted, this
    watch pins the first moment anything was dropped at all.
    """

    def __init__(self):
        self.drops: dict[str, int] = {}
        self.first_drop: dict[str, float] = {}

    def observe(self, record: tuple[float, str, str, dict]) -> None:
        ts, kind, comp, _fields = record
        if not kind.endswith(".drop"):
            return
        if comp not in self.first_drop:
            self.first_drop[comp] = ts
        self.drops[comp] = self.drops.get(comp, 0) + 1


def attach(tracer, *observers) -> None:
    """Subscribe each observer to ``tracer`` (None-tolerant no-op)."""
    if tracer is None:
        return
    for observer in observers:
        tracer.subscribe(observer)


def detach(tracer, *observers) -> None:
    """Unsubscribe observers, restoring the raw-append fast path."""
    if tracer is None:
        return
    for observer in observers:
        tracer.unsubscribe(observer)


# ----------------------------------------------------------------------
# finalize-time checks over run handles
# ----------------------------------------------------------------------
def _packet_ports(net) -> list[Any]:
    """Every directed trunk port of an ATM/TCP network, name-sorted."""
    return [port for _key, port in sorted(net.trunks.items())]


def conservation_check(run) -> dict[str, Any]:
    """Exact cell/packet conservation ledger over every trunk port.

    At any checkpoint a port satisfies ``arrivals == departures + drops
    + queue_len`` *exactly* (integer counters, maintained by the port
    itself); the check evaluates the ledger at the final checkpoint of
    the run.  Fluid trunks carry a continuous queue instead: the check
    re-integrates (offered − capacity)·Δt, clamped at zero, from the
    recorded ``offered`` series and compares it to the trunk's final
    queue within float tolerance.
    """
    net = getattr(run, "net", run)
    if hasattr(net, "steps"):          # FluidNetwork
        return _fluid_conservation(net)
    ledger: dict[str, dict[str, int]] = {}
    bad: list[str] = []
    for port in _packet_ports(net):
        balance = (port.arrivals - port.departures - port.drops
                   - port.queue_len)
        ledger[port.name] = {
            "arrivals": port.arrivals, "departures": port.departures,
            "drops": port.drops, "queued": port.queue_len,
            "balance": balance,
        }
        if balance != 0:
            bad.append(port.name)
    verdict = VIOLATED if bad else PASS
    return check("conservation", verdict,
                 evidence={"ports": ledger, "unbalanced": bad})


#: Relative slack for the fluid queue re-integration (float summation
#: order differs between the stepper and the check).
_FLUID_RTOL = 1e-6


def _fluid_conservation(net) -> dict[str, Any]:
    dt = net.dt
    ledger: dict[str, dict[str, float]] = {}
    bad: list[str] = []
    for name, trunk in sorted(net.trunks.items()):
        # the offered StepProbe dedups held values, so replay the
        # per-Δt update under its sample-and-hold semantics (the step
        # times below reproduce the stepper's own t_next arithmetic
        # bit-for-bit)
        queue = 0.0
        for step in range(1, net.steps + 1):
            offered = trunk.offered_probe.value_at(step * dt, 0.0)
            # the stepper's rate_cells_per_interval, spelled out: an
            # import of the fluid stepper here would put it in every
            # packet task's fingerprint closure
            queue += ((offered - trunk.capacity_mbps) * 1e6 * dt
                      / units.CELL_BITS)
            if queue < 0.0:
                queue = 0.0
        drift = abs(queue - trunk.queue_cells)
        tolerance = _FLUID_RTOL * max(1.0, abs(trunk.queue_cells))
        ledger[name] = {"reintegrated": queue,
                        "final": trunk.queue_cells, "drift": drift}
        if drift > tolerance:
            bad.append(name)
    verdict = VIOLATED if bad else PASS
    return check("conservation", verdict,
                 evidence={"trunks": ledger, "unbalanced": bad})


def queue_bound_check(run, bound_cells: float | None = None,
                      watch: QueueWatch | None = None) -> dict[str, Any]:
    """Queue-boundedness over every trunk's recorded queue series.

    ``bound_cells=None`` derives the bound per port: a finite configured
    buffer is its own bound (the port cannot exceed it), otherwise the
    Vandalore-style transient bound for the port's capacity and the
    run's session count.  A live :class:`QueueWatch` refines the
    first-violation timestamp when one was attached.
    """
    net = getattr(run, "net", run)
    peaks: dict[str, float] = {}
    bounds: dict[str, float] = {}
    violations: dict[str, float] = {}
    if hasattr(net, "steps"):          # FluidNetwork
        # every flow in a cohort is a source that can overshoot for a
        # feedback window, so the bound scales with the flow count
        sessions = max(1, sum(c.count for c in net.cohorts))
        for name, trunk in sorted(net.trunks.items()):
            bound = bound_cells if bound_cells is not None else \
                vandalore_bound(trunk.capacity_mbps,
                                trunk.params.interval,
                                sessions=sessions)
            bounds[name] = bound
            _scan_queue(trunk.queue_probe, bound, name, peaks,
                        violations)
    else:
        sessions = max(1, len(getattr(net, "sessions", None)
                              or getattr(net, "flows", {})))
        interval = _port_interval(net)
        for port in _packet_ports(net):
            is_tcp = hasattr(port, "policy")
            limit = (getattr(port.policy, "buffer_packets", None)
                     if is_tcp else port.buffer_cells)
            if bound_cells is not None:
                bound = bound_cells
            elif limit is not None:
                # a finite configured buffer is its own bound
                bound = float(limit)
            else:
                bound = vandalore_bound(
                    port.rate_mbps, interval,
                    feedback_delay_s=2 * port.propagation,
                    sessions=sessions,
                    bits_per_unit=(PACKET_BITS if is_tcp
                                   else units.CELL_BITS))
            bounds[port.name] = bound
            _scan_queue(port.queue_probe, bound, port.name, peaks,
                        violations)
    if watch is not None:
        for comp, ts in watch.first_violation.items():
            violations[comp] = min(ts, violations.get(comp, math.inf))
    first = min(violations.values()) if violations else None
    verdict = VIOLATED if violations else PASS
    return check("queue_bound", verdict,
                 evidence={"bounds": bounds,
                           "peak": dict(sorted(peaks.items())),
                           "violations": dict(sorted(violations.items()))},
                 first_violation_ts=first)


def _port_interval(net) -> float:
    """The control-loop measurement interval of a packet network's
    bottleneck algorithm (falls back to 1 ms, the paper's Δt)."""
    for port in _packet_ports(net):
        params = getattr(getattr(port, "algorithm", None), "params", None)
        interval = getattr(params, "interval", None)
        if interval:
            return interval
    return 1e-3


def _scan_queue(probe: Probe, bound: float, name: str,
                peaks: dict[str, float],
                violations: dict[str, float]) -> None:
    peak = 0.0
    for t, v in probe:
        if v > peak:
            peak = v
            if v > bound and name not in violations:
                violations[name] = t
    peaks[name] = peak


def convergence_check(rate_probes: Mapping[str, Probe],
                      oracle: Mapping[str, float], *,
                      eps: float = DEFAULT_EPS, hold: float = 0.01,
                      horizon: float | None = None) -> dict[str, Any]:
    """Settling time of each session's rate into the oracle's ε-band.

    A session converges when its recorded rate enters and *stays*
    within ``±eps·oracle`` of its oracle allocation (the
    :func:`repro.analysis.metrics.convergence_time` semantics).  The
    check is violated when any session never settles.
    """
    settling: dict[str, float | None] = {}
    unsettled: list[str] = []
    for name in sorted(oracle):
        probe = rate_probes.get(name)
        if probe is None or not len(probe):
            settling[name] = None
            unsettled.append(name)
            continue
        settled = convergence_time(probe, oracle, tolerance=eps,
                                   hold=hold, session=name)
        if math.isinf(settled):
            settling[name] = None
            unsettled.append(name)
        else:
            settling[name] = settled
    verdict = VIOLATED if unsettled else PASS
    evidence: dict[str, Any] = {"eps": eps, "settling_s": settling,
                                "unsettled": unsettled}
    if horizon is not None:
        evidence["horizon_s"] = horizon
    return check("convergence", verdict, evidence=evidence)


def oscillation_check(rate_probes: Mapping[str, Probe],
                      oracle: Mapping[str, float],
                      settling: Mapping[str, float | None], *,
                      eps: float = DEFAULT_EPS,
                      horizon: float | None = None) -> dict[str, Any]:
    """Post-settling peak-to-peak amplitude of each session's rate.

    After a session settles, its swing may use the ε-band but not
    exceed :data:`OSCILLATION_BAND_FACTOR` times the band width —
    sustained ringing wider than the band it "settled" into means the
    band entry was luck, not convergence.  Sessions that never settled
    are the convergence check's finding, not this one's; they are
    skipped here.
    """
    amplitudes: dict[str, float] = {}
    ringing: list[str] = []
    for name in sorted(oracle):
        settled = settling.get(name)
        probe = rate_probes.get(name)
        if settled is None or probe is None or not len(probe):
            continue
        end = horizon if horizon is not None else probe.times[-1]
        window = probe.window(settled, end)
        if not len(window):
            continue
        amplitude = window.max() - window.min()
        amplitudes[name] = amplitude
        allowed = OSCILLATION_BAND_FACTOR * 2 * eps * oracle[name]
        if amplitude > allowed:
            ringing.append(name)
    verdict = VIOLATED if ringing else PASS
    return check("oscillation", verdict,
                 evidence={"eps": eps,
                           "band_factor": OSCILLATION_BAND_FACTOR,
                           "peak_to_peak": amplitudes,
                           "ringing": ringing})


def fairness_gap_check(measured: Mapping[str, float],
                       oracle: Mapping[str, float], *,
                       eps: float = DEFAULT_EPS) -> dict[str, Any]:
    """Jain index and max relative error of steady rates vs the oracle.

    The *gap* is the worst per-session relative deviation from the
    oracle allocation; the check is violated when it exceeds ε.  The
    Jain index is evidence, not a gate — with a weighted oracle, equal
    rates would be the unfair outcome.
    """
    if set(measured) - set(oracle):
        extra = sorted(set(measured) - set(oracle))
        raise ValueError(f"measured sessions missing from the oracle: "
                         f"{', '.join(extra)}")
    gaps = {name: abs(measured[name] - oracle[name]) / oracle[name]
            for name in sorted(measured)}
    worst = max(gaps.values()) if gaps else 0.0
    verdict = VIOLATED if worst > eps else PASS
    return check("fairness_gap", verdict,
                 evidence={"eps": eps,
                           "jain": jain_index(measured.values()),
                           "max_rel_error": worst,
                           "rel_error": gaps})


__all__ = [
    "DEFAULT_EPS", "NOT_APPLICABLE", "OSCILLATION_BAND_FACTOR", "PASS",
    "VANDALORE_SAFETY", "VIOLATED", "DropWatch", "QueueWatch", "attach",
    "check", "conservation_check", "convergence_check", "detach",
    "fairness_gap_check", "oscillation_check", "queue_bound_check",
    "vandalore_bound",
]
