"""Fluid-tier construction: scenario configs as flow cohorts.

:func:`build_fluid` maps a **scenario config** (schema in
``docs/SCENARIOS.md``, named configurations in
:mod:`repro.configs`) onto a :class:`FluidNetwork`: trunks stay
trunks and ABR sessions become cohorts of identical flows.  The same
config therefore runs on both tiers, and the validation suite compares
the two runs name-for-name.

The public builders (:func:`staggered_start` and the rest, one statement
each) keep the fluid tier's own knobs: ``flows_per_session`` scales every
session into a cohort of identical flows at no extra stepping cost,
``mode`` switches the source law to binary CI marking, and ``rm_loss``
drops a fraction of the feedback.  :func:`many_flows` is the scale
scenario, built directly.
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial
from typing import Any, Mapping

from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.configs import (ONOFF_SEED, bottleneck, check_config, onoff,
                           parking, staggered, topology,
                           transient as transient_config)
from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
from repro.fluid.model import FluidNetwork
from repro.fluid.results import FluidRun

#: Grant floor disabled: with thousands of flows, holding every silent
#: source at 5% of the line rate would alone oversubscribe the trunk.
#: The floor exists to keep packet RM feedback alive through transients,
#: which the fluid model does not need.
MANY_FLOW_PHANTOM = PhantomParams(grant_floor_fraction=0.0)


def phantom_algorithm(params: Mapping[str, Any] | None = None,
                      mode: str = "er", use_ni: bool = False,
                      ni_fraction: float = 0.8) -> dict[str, Any]:
    """A config's algorithm keys for a fluid source law.

    ``mode="er"`` is explicit-rate Phantom (``"phantom"``);
    ``mode="binary"`` is CI-marking Phantom (``"phantom-binary"``), whose
    ``use_ni``/``ni_fraction`` knobs ride in the algorithm params.  Both
    keys are always present (``algorithm_params=None`` means defaults),
    so a caller's own algorithm keyword clashes instead of overriding.
    """
    if mode == "er":
        return {"algorithm": "phantom",
                "algorithm_params": None if params is None else dict(params)}
    if mode == "binary":
        return {"algorithm": "phantom-binary",
                "algorithm_params": {**(params or {}), "use_ni": use_ni,
                                     "ni_fraction": ni_fraction}}
    raise ValueError(f"mode must be 'er' or 'binary', got {mode!r}")


def _network_options(config: Mapping[str, Any]) -> dict[str, Any]:
    """:class:`FluidNetwork` source-law arguments for the config's
    algorithm, the inverse of :func:`phantom_algorithm`."""
    algorithm = config.get("algorithm", "phantom")
    params = dict(config.get("algorithm_params") or {})
    if algorithm == "phantom":
        return {"phantom": PhantomParams(**params)}
    if algorithm == "phantom-binary":
        marking = {key: params.pop(key) for key in ("use_ni", "ni_fraction")
                   if key in params}
        return {"phantom": PhantomParams(**params), "mode": "binary",
                **marking}
    raise ValueError(f"the fluid tier models the phantom and "
                     f"phantom-binary laws only, got {algorithm!r}")


def build_fluid(config: Mapping[str, Any], *, flows_per_session: int = 1,
                seed: int | None = 0, tracer=None,
                run: bool = True) -> FluidRun:
    """Build (and by default run) the fluid network a config describes.

    Every trunk direction a session crosses (plus the bottleneck) becomes
    a :class:`~repro.fluid.model.FluidTrunk` named like its packet port
    (``"S1->S2"``).  Every ABR session becomes a cohort of
    ``flows_per_session`` flows with the session's name, route, start,
    stop, parameters and on/off phases.  On/off phases draw from the
    stream the config names, so both tiers sample the same periods;
    ``seed=None`` fixes them at their means.

    The fluid tier models neither propagation delay (sources react
    within one Δt, as packet sources do when their RM round trip is
    short against Δt) nor finite port buffers, so those config values
    are ignored; guaranteed CBR/VBR streams are rejected.
    """
    check_config(config)
    if config.get("cbr") or config.get("vbr"):
        raise ValueError("the fluid tier models ABR sessions only; the "
                         "config has cbr/vbr streams")
    net = FluidNetwork(seed=seed, tracer=tracer, **_network_options(config))
    capacities, routes = topology(config)
    reported = bottleneck(config)
    crossed = {port for path in routes.values() for port in path}
    crossed.add(reported)
    for port, capacity in capacities.items():
        if port in crossed:
            net.add_trunk(port, capacity_mbps=capacity)
    rm_loss = float(config.get("rm_loss", 0.0))
    for entry in config["sessions"]:
        vc = entry["vc"]
        phases = entry.get("onoff") or {}
        cohort = net.add_cohort(
            vc, route=routes[vc], count=flows_per_session,
            params=AbrParams(**dict(entry.get("params") or {})),
            start=float(entry.get("start", 0.0)), rm_loss=rm_loss,
            on_time=phases.get("on"), off_time=phases.get("off"),
            stream=phases.get("stream", f"onoff.{vc}"))
        # scheduled right after the cohort joins, matching build_atm
        if "stop" in entry:
            net.at(float(entry["stop"]), partial(cohort.set_active, False))
    duration = float(config.get("duration", 0.25))
    result = FluidRun(net=net, bottleneck=net.trunks[reported],
                      duration=duration)
    if run:
        net.run(until=duration)
    return result


# ----------------------------------------------------------------------
# the paper's configurations as cohorts
# ----------------------------------------------------------------------
def staggered_start(n_sessions: int = 2, stagger: float = 0.03,
                    duration: float = 0.25, link_rate: float = 150.0,
                    flows_per_session: int = 1,
                    params: AbrParams = PAPER_PARAMS,
                    phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
                    mode: str = "er", use_ni: bool = False,
                    ni_fraction: float = 0.8, rm_loss: float = 0.0,
                    tracer=None, run: bool = True) -> FluidRun:
    """Fluid run of :func:`repro.configs.staggered` (E01)."""
    return build_fluid(
        {**staggered(n_sessions, stagger, duration, link_rate,
                     session_params=asdict(params),
                     **phantom_algorithm(asdict(phantom), mode, use_ni,
                                         ni_fraction)),
         "rm_loss": rm_loss},
        flows_per_session=flows_per_session, tracer=tracer, run=run)


def on_off(greedy: int = 1, bursty: int = 2, on_time: float = 0.02,
           off_time: float = 0.02, duration: float = 0.4,
           link_rate: float = 150.0, flows_per_session: int = 1,
           params: AbrParams = PAPER_PARAMS,
           phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
           seed: int | None = ONOFF_SEED, tracer=None,
           run: bool = True) -> FluidRun:
    """Fluid run of :func:`repro.configs.onoff` (E02); the
    phases come from the packet run's streams (fixed when ``seed=None``)."""
    return build_fluid(
        onoff(greedy, bursty, on_time, off_time, duration, link_rate,
              session_params=asdict(params),
              **phantom_algorithm(asdict(phantom))),
        flows_per_session=flows_per_session, seed=seed, tracer=tracer,
        run=run)


def parking_lot(hops: int = 3, duration: float = 0.3,
                link_rate: float = 150.0, flows_per_session: int = 1,
                params: AbrParams = PAPER_PARAMS,
                phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
                tracer=None, run: bool = True) -> FluidRun:
    """Fluid run of :func:`repro.configs.parking` (E05).

    The per-group grant is the min over the route, so the long cohort
    gets the true-bottleneck grant — no beat-down, as the paper claims
    for Phantom.
    """
    return build_fluid(
        parking(hops, duration, link_rate, session_params=asdict(params),
                **phantom_algorithm(asdict(phantom))),
        flows_per_session=flows_per_session, tracer=tracer, run=run)


def transient(duration: float = 0.4, join_at: float = 0.1,
              leave_at: float = 0.25, link_rate: float = 150.0,
              flows_per_session: int = 1, params: AbrParams = PAPER_PARAMS,
              phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
              tracer=None, run: bool = True) -> FluidRun:
    """Fluid run of :func:`repro.configs.transient`."""
    return build_fluid(
        transient_config(duration, join_at, leave_at, link_rate,
                         session_params=asdict(params),
                         **phantom_algorithm(asdict(phantom))),
        flows_per_session=flows_per_session, tracer=tracer, run=run)


def many_flows(cohorts: int = 1000,
               flows_per_cohort: int = 1000,
               greedy: int = 100,
               background_load: float = 0.7,
               duration: float = 1.0,
               link_rate: float = 10000.0,
               params: AbrParams = PAPER_PARAMS,
               phantom: PhantomParams = MANY_FLOW_PHANTOM,
               record_cohorts: bool = False,
               tracer=None,
               run: bool = True) -> FluidRun:
    """The scale scenario: a million-flow trunk with a realistic mix.

    ``cohorts × flows_per_cohort`` demand-limited background flows
    carry ``background_load`` of the trunk between them, while
    ``greedy`` individual greedy flows exercise Phantom's convergence
    loop over the leftover capacity.  Defaults put 1,000,100 flows on
    one 10 Gb/s trunk.

    Why the mix rather than a million greedy flows: with TM 4.0 paper
    constants the per-RM additive step AIR·Nrm = 42.5 Mb/s dwarfs a
    millibit fair share, so a million greedy sources form a mean-field
    relaxation oscillator (each Trm-backstop RM re-floods the trunk
    40x over) — honest dynamics of those constants, not a model
    artefact.  Real million-user trunks are demand-limited aggregates;
    the greedy minority is what the control loop actually steers, and
    it converges near the analytic share f·(C − background)/(n·f + 1).
    Cohort probe recording is off by default so the run measures the
    stepper, not probe appends.
    """
    if not 0.0 <= background_load < 1.0:
        raise ValueError(
            f"background_load must be in [0, 1), got {background_load!r}")
    net = FluidNetwork(phantom=phantom, record_cohorts=record_cohorts,
                       tracer=tracer)
    trunk = net.add_trunk("T1", capacity_mbps=link_rate)
    flows = cohorts * flows_per_cohort
    demand = background_load * link_rate / flows if flows else 0.0
    for i in range(cohorts):
        net.add_cohort(f"bg{i}", route=["T1"], count=flows_per_cohort,
                       params=params, demand_mbps=demand)
    for i in range(greedy):
        net.add_cohort(f"fg{i}", route=["T1"], count=1, params=params)
    result = FluidRun(net=net, bottleneck=trunk, duration=duration)
    if run:
        net.run(until=duration)
    return result
