"""The equilibrium judge: did a run settle at its max-min share?

The paper claims that every Phantom session settles at its
phantom-adjusted max-min share.  This module is the one place that
claim is judged: :mod:`repro.obs.health` calls :func:`judge` for every
packet-ATM and fluid run, and :mod:`repro.fuzz.harness` reads the
verdicts back out of each task's HealthReport.  A judgment has three
stages, each read from the scenario config the run was built from
(``AtmRun.config`` / ``FluidRun.config``):

1. **The gate list** (:func:`gate_reason`): the runs the equilibrium
   argument covers.  The law must be the paper's explicit-rate Phantom
   (``algorithm`` ``"phantom"``, the schema default) with the paper's
   filter (only the rescaling knobs ``interval``/``utilization_factor``
   may leave their defaults), at a factor of at most
   :data:`MAX_FACTOR`.  No trunk may be faster than the access links.
   Demand must be steady and greedy: no CBR/VBR cross-traffic, no RM
   loss, no on/off session, no session leaving before the horizon.
   At least :data:`MIN_SETTLED_INTERVALS` control intervals must remain
   after the last session joins.
2. **Reachability and settledness.**  No oracle share may sit under the
   grant floor of its path (Phantom never grants below it).  Each
   session's mean rate over the last quarter of the horizon must agree
   with the quarter before it within ``DRIFT_FRACTION·ε`` — a run still
   ramping is excused, not mis-reported as unfair.
3. **The checks**: ``convergence`` and ``oscillation`` of the
   instantaneous rate, ``fairness_gap`` (the settled mean within ±ε of
   the oracle), and ``oracle_consistency`` (the Fahmy solver of
   :mod:`repro.obs.oracle` against the water-filling one).

A run a stage excuses gets all four checks ``not-applicable``, with the
stage's short ``gate`` name and a ``reason`` in the evidence.

The rate judged is what the control loop assigns: the allowed cell rate
of packet sessions, the per-flow rate of fluid cohorts.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Mapping

from repro.atm.params import AbrParams
from repro.configs import topology
from repro.core.fairness import max_min_allocation
from repro.core.params import PhantomParams
from repro.obs.monitor import (DEFAULT_EPS, NOT_APPLICABLE, PASS, VIOLATED,
                               check, convergence_check, fairness_gap_check,
                               oscillation_check)
from repro.obs.oracle import fair_share

#: The checks the judge decides, in report order.
ORACLE_CHECKS = ("convergence", "oscillation", "fairness_gap",
                 "oracle_consistency")

#: ``algorithm_params`` keys that re-parameterise the Phantom law
#: without changing what it converges to (the factor f feeds the
#: oracle's phantom weight; Δt only changes the time scale).
RESCALING_KEYS = frozenset({"interval", "utilization_factor"})

#: Largest utilization factor the ε-band argument holds for.  ACR
#: noise is MACR noise amplified f-fold, so very aggressive factors
#: ring permanently: empirically f ≤ 12 settles into the 5% band on
#: the committed horizons and f = 15 already never does.  10 keeps a
#: margin to that cliff (the paper's own choices are 2–10).
MAX_FACTOR = 10.0

#: Shortest horizon after the last join worth judging, in control
#: intervals.  Settling takes tens of intervals (E01: ≈ 38 of
#: Δt = 1 ms), so a shorter one measures the transient.
MIN_SETTLED_INTERVALS = 50

#: Settledness cut, as a fraction of ε: the last-quarter mean rate must
#: agree with the quarter before it to within this.  Converged runs
#: drift well under 0.5% per quarter-horizon; weighted sessions at
#: aggressive factors creep at ~2% per quarter for many horizons, so
#: the cut sits between the two.  A run whose rates have stopped moving
#: at the *wrong* value is settled, and stays a violation.
DRIFT_FRACTION = 0.2

#: Tolerance for the two oracle solvers to agree (relative).
_AGREE_RTOL = 1e-9

_DEFAULTS = PhantomParams()
_UNSET = object()

Oracle = Callable[[Mapping[str, Any]], dict[str, float]]


def not_applicable(gate: str, reason: str) -> list[dict[str, Any]]:
    """The four oracle checks, excused by ``gate`` for ``reason``."""
    return [check(name, NOT_APPLICABLE,
                  evidence={"gate": gate, "reason": reason})
            for name in ORACLE_CHECKS]


# ----------------------------------------------------------------------
# stage 1: the gate list
# ----------------------------------------------------------------------
def gate_reason(config: Mapping[str, Any]) -> tuple[str, str] | None:
    """``(gate, reason)`` when the equilibrium argument does not cover
    the config's run, or None when it does."""
    algorithm = config.get("algorithm", "phantom")
    if algorithm != "phantom":
        return "algorithm", (f"algorithm {algorithm!r} does not target "
                             f"the phantom-adjusted allocation")
    knobs = config.get("algorithm_params") or {}
    for key in sorted(knobs):
        # a knob left at its default does not change the law
        if key not in RESCALING_KEYS \
                and knobs[key] != getattr(_DEFAULTS, key, _UNSET):
            return "filter", (f"algorithm parameter {key!r} departs from "
                              f"the paper's filter")
    factor = _factor(config)
    if factor > MAX_FACTOR:
        return "factor", (f"utilization_factor {factor:g} > "
                          f"{MAX_FACTOR:g} amplifies MACR noise past the "
                          f"ε-band")
    link_rate = float(config.get("link_rate", 150.0))
    for trunk in config.get("trunks", ()):
        if float(trunk.get("rate", link_rate)) > link_rate:
            return "access", (
                f"trunk {trunk['a']}->{trunk['b']} is faster than the "
                f"{link_rate:g} Mb/s access links, so sessions are "
                f"access-limited and ACR exceeds the trunk max-min share "
                f"by design")
    if config.get("vbr") or config.get("cbr"):
        return "cross_traffic", ("background cross-traffic perturbs the "
                                 "steady demand")
    if float(config.get("rm_loss", 0.0)) > 0.0:
        return "rm_loss", "RM-loss ablation perturbs the control loop"
    duration = _duration(config)
    latest_start = 0.0
    for session in config.get("sessions", ()):
        vc = session["vc"]
        if session.get("onoff"):
            return "onoff", f"session {vc!r} has bursty on/off demand"
        if float(session.get("stop", duration)) < duration:
            return "stop", (f"session {vc!r} leaves at "
                            f"{float(session['stop']):g}s, before the "
                            f"{duration:g}s horizon")
        latest_start = max(latest_start, float(session.get("start", 0.0)))
    interval = float(knobs.get("interval", _DEFAULTS.interval))
    settled = duration - latest_start
    if settled < MIN_SETTLED_INTERVALS * interval:
        return "horizon", (f"only {settled:g}s after the last join is "
                           f"under {MIN_SETTLED_INTERVALS} control "
                           f"intervals ({interval:g}s each)")
    return None


def _factor(config: Mapping[str, Any]) -> float:
    knobs = config.get("algorithm_params") or {}
    return float(knobs.get("utilization_factor",
                           _DEFAULTS.utilization_factor))


def _duration(config: Mapping[str, Any]) -> float:
    return float(config.get("duration", 0.25))


# ----------------------------------------------------------------------
# the packet-tier oracle
# ----------------------------------------------------------------------
def _abr_params(config: Mapping[str, Any]) -> dict[str, AbrParams]:
    return {session["vc"]: AbrParams(**dict(session.get("params") or {}))
            for session in config.get("sessions", ())}


def _solver_inputs(config: Mapping[str, Any]) -> dict[str, Any]:
    """Phantom weight, session weights and MCR floors of a config."""
    params = _abr_params(config)
    minimums = {vc: p.mcr for vc, p in params.items() if p.mcr > 0}
    return {"phantom_weight": 1.0 / _factor(config),
            "weights": {vc: p.weight for vc, p in params.items()},
            "minimums": minimums or None}


def oracle_for_config(config: Mapping[str, Any]) -> dict[str, float]:
    """The phantom-adjusted fair share a config's ABR sessions target.

    The Fahmy solver over the config's topology, with phantom weight
    ``1/f`` from the ``utilization_factor`` and the per-session
    weight/MCR overrides, every share clamped at the session's PCR (a
    source never sends faster, whatever the water level says).

    One refinement: every session returns one backward RM cell per
    ``Nrm`` forward cells, and that stream consumes ``rate / Nrm`` of
    capacity on every *reverse* port of its route.  With one-directional
    traffic those ports are idle and the tax changes nothing; configs
    that mix directions can spend ~3% of a loaded link on the opposing
    sessions' backward RM cells.  The coupled fixpoint (shares depend
    on taxed capacities depend on shares) is solved by iterating the
    solver — the perturbation is tiny, so a handful of rounds converge
    far past the ε-band's resolution.
    """
    capacities, routes = topology(config)
    inputs = _solver_inputs(config)
    params = _abr_params(config)
    rm_fraction = {vc: 1.0 / p.nrm for vc, p in params.items()}
    reverse = {vc: ["->".join(link.split("->")[::-1]) for link in path]
               for vc, path in routes.items()}

    def solve(caps: Mapping[str, float]) -> dict[str, float]:
        allocation = fair_share(caps, routes, **inputs)
        return {vc: min(rate, params[vc].pcr)
                for vc, rate in allocation.items()}

    shares = solve(capacities)
    for _ in range(8):
        tax = dict.fromkeys(capacities, 0.0)
        for vc, ports in reverse.items():
            for port in ports:
                tax[port] += shares[vc] * rm_fraction[vc]
        taxed = {link: max(cap - tax[link], cap * 1e-3)
                 for link, cap in capacities.items()}
        refined = solve(taxed)
        worst = max(abs(refined[vc] - shares[vc])
                    / max(shares[vc], 1e-12) for vc in shares)
        shares = refined
        if worst < 1e-12:
            break
    return shares


def _consistency_check(config: Mapping[str, Any]) -> dict[str, Any]:
    """``oracle_consistency``: the Fahmy solver against incremental
    water-filling on the config's own topology and weights."""
    capacities, routes = topology(config)
    inputs = _solver_inputs(config)
    ours = fair_share(capacities, routes, **inputs)
    reference = max_min_allocation(capacities, routes, **inputs)
    worst = max((abs(ours[vc] - reference[vc])
                 / max(abs(reference[vc]), 1e-12) for vc in reference),
                default=0.0)
    verdict = PASS if worst <= _AGREE_RTOL else VIOLATED
    return check("oracle_consistency", verdict,
                 evidence={"max_relative_disagreement": worst})


# ----------------------------------------------------------------------
# stage 2: reachability and settledness
# ----------------------------------------------------------------------
def _floor_reason(config: Mapping[str, Any],
                  oracle: Mapping[str, float]) -> str | None:
    """Phantom never grants below ``grant_floor_fraction × C``, so a
    share under the floor of every link on its path is unreachable by
    construction.  The gates leave the fraction at its default."""
    capacities, routes = topology(config)
    fraction = _DEFAULTS.grant_floor_fraction
    for name in sorted(oracle):
        floor = min(fraction * capacities[link] for link in routes[name])
        if oracle[name] < floor:
            return (f"oracle share {oracle[name]:.3g} Mb/s for {name!r} "
                    f"is below the grant floor {floor:.3g} Mb/s")
    return None


def settled_mean(probe, lo: float, hi: float) -> float:
    """Time-weighted mean of a change-recorded series over ``[lo, hi]``.

    Each value holds until the next record, so the value held at ``lo``
    counts for the stretch before the window's first record; before the
    series' first record the signal counts as 0.
    """
    times, values = probe.times, probe.values
    if not len(times) or hi <= lo:
        return 0.0
    total = 0.0
    last = len(times) - 1
    for i in range(max(bisect_right(times, lo) - 1, 0), last + 1):
        seg_lo = max(times[i], lo)
        seg_hi = min(times[i + 1] if i < last else hi, hi)
        if seg_hi > seg_lo:
            total += values[i] * (seg_hi - seg_lo)
        elif times[i] >= hi:
            break
    return total / (hi - lo)


def _settled(probes: Mapping[str, Any], oracle: Mapping[str, float],
             duration: float, eps: float
             ) -> tuple[dict[str, float], tuple[str, str] | None]:
    """The last-quarter mean rate of each session, or ``(gate,
    reason)`` when a session has no series or is still ramping."""
    measured: dict[str, float] = {}
    cut = DRIFT_FRACTION * eps
    for name in sorted(oracle):
        probe = probes.get(name)
        if probe is None or not len(probe):
            return measured, ("series", f"no rate series for {name!r}")
        late = settled_mean(probe, 0.75 * duration, duration)
        mid = settled_mean(probe, 0.5 * duration, 0.75 * duration)
        drift = abs(late - mid) / max(abs(late), 1e-12)
        if drift > cut:
            return measured, ("ramping", (
                f"{name!r} still ramping at the horizon (last-quarter "
                f"rate drifted {drift:.1%} > {cut:.1%})"))
        measured[name] = late
    return measured, None


# ----------------------------------------------------------------------
# the judgment
# ----------------------------------------------------------------------
def judge(config: Mapping[str, Any] | None, probes: Mapping[str, Any],
          eps: float = DEFAULT_EPS, oracle: Oracle = oracle_for_config,
          ) -> tuple[list[dict[str, Any]], dict[str, float] | None]:
    """``(checks, oracle allocation)`` for one run.

    ``probes`` maps each session to its rate series; ``oracle`` maps
    the config to the allocation those rates are held to (the packet
    tier's by default; the fluid tier passes its per-flow one).  The
    allocation comes back only when the checks were judged.
    """
    if config is None:
        return not_applicable(
            "config", "run was not built from a scenario config"), None
    found = gate_reason(config)
    if found is not None:
        return not_applicable(*found), None
    shares = oracle(config)
    reason = _floor_reason(config, shares)
    if reason is not None:
        return not_applicable("floor", reason), None
    duration = _duration(config)
    measured, found = _settled(probes, shares, duration, eps)
    if found is not None:
        return not_applicable(*found), None
    conv = convergence_check(probes, shares, eps=eps, horizon=duration)
    osc = oscillation_check(probes, shares, conv["evidence"]["settling_s"],
                            eps=eps, horizon=duration)
    return [conv, osc, fairness_gap_check(measured, shares, eps=eps),
            _consistency_check(config)], shares


__all__ = [
    "DRIFT_FRACTION", "MAX_FACTOR", "MIN_SETTLED_INTERVALS",
    "ORACLE_CHECKS", "RESCALING_KEYS", "gate_reason", "judge",
    "not_applicable", "oracle_for_config", "settled_mean",
]
