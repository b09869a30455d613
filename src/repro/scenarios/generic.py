"""Packet-tier construction: every ATM scenario is built here.

:func:`build_atm` reads a scenario config (schema in
``docs/SCENARIOS.md``, named configurations in
:mod:`repro.configs`) and assembles any single-path topology
the packet substrate supports.  The ``fuzz.generic`` and named ``atm.*``
registry entries and the public builders below (one statement each) all
build through it.

Randomness (on/off periods, VBR state durations, RM-loss coin flips) is
drawn exclusively from per-name :class:`repro.sim.rng.RngStreams`
streams seeded by the ``seed`` argument, so a config + seed pair
reproduces bit-identically and dropping one component never perturbs
another's sample path (the property the shrinker relies on).
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Callable, Mapping

from repro.atm import AbrParams, AtmNetwork, PAPER_PARAMS
from repro.atm.link import Link
from repro.atm.port import PortAlgorithm
from repro.configs import (ONOFF_SEED, bottleneck, check_config, onoff,
                           parking, rtt, staggered,
                           transient as transient_config, validate_config)
from repro.scenarios.results import AtmRun
from repro.scenarios.workloads import OnOffDriver
from repro.sim import RngStreams

AlgorithmFactory = Callable[[], PortAlgorithm]

__all__ = ["build_atm", "validate_config", "staggered_start", "rtt_spread",
           "on_off", "parking_lot", "transient"]


def _inject_rm_loss(net: AtmNetwork, rm_loss: float,
                    streams: RngStreams) -> None:
    """Replace each session's backward access link with a lossy twin.

    The switch's per-VC dispatch cache must move with the route table or
    the lossless original keeps receiving the cells.
    """
    for vc, session in net.sessions.items():
        first_switch = net.switches[session.route[0]]
        lossy = Link(net.sim, net.link_rate, net.access_delay,
                     session.source, name=f"{vc}.back.lossy",
                     loss_rate=rm_loss,
                     rng=streams.stream(f"rmloss.{vc}"))
        first_switch._backward[vc] = lossy
        first_switch._backward_recv[vc] = lossy.receive


def build_atm(config: Mapping[str, Any], *,
              algorithm_factory: AlgorithmFactory,
              seed: int | None = 0, tracer=None,
              run: bool = True) -> AtmRun:
    """Build (and by default run) the ATM network a config describes.

    ``algorithm_factory`` is a zero-arg switch-algorithm factory.  It is
    a required argument — deliberately NOT resolved here from the
    config's ``algorithm``/``algorithm_params`` keys, because importing
    the algorithm tables would drag every algorithm module into this
    module's import closure and so into every task's fingerprint.  The
    registry entries (:mod:`repro.exec.entries`) do the resolution, and
    their ``param_deps`` hooks keep cache sensitivity scoped to the
    *chosen* algorithm's module.

    ``seed=None`` gives on/off sessions fixed periods at their means.
    """
    check_config(config)
    root_seed = seed if seed is not None else 0
    net = AtmNetwork(algorithm_factory=algorithm_factory,
                     link_rate=float(config.get("link_rate", 150.0)),
                     seed=root_seed, tracer=tracer)
    for name in config["switches"]:
        net.add_switch(name)
    for trunk in config["trunks"]:
        net.connect(trunk["a"], trunk["b"],
                    rate=trunk.get("rate"), delay=trunk.get("delay"),
                    buffer_cells=trunk.get("buffer_cells"))

    streams = RngStreams(root_seed)
    for entry in config["sessions"]:
        vc = entry["vc"]
        session = net.add_session(
            vc, route=list(entry["route"]),
            start=float(entry.get("start", 0.0)),
            params=AbrParams(**dict(entry.get("params") or {})),
            access_delay=entry.get("access_delay"))
        # scheduled right after the session joins, so its heap
        # tie-break order is fixed by the config's session order
        if "stop" in entry:
            net.sim.schedule_at(float(entry["stop"]),
                                session.source.set_active, False)
        phases = entry.get("onoff")
        if phases:
            rng = (streams.stream(phases.get("stream", f"onoff.{vc}"))
                   if seed is not None else None)
            # the driver stays alive through its scheduled toggle events
            OnOffDriver(net.sim, session.source,
                        on_time=float(phases["on"]),
                        off_time=float(phases["off"]), rng=rng)
    for entry in config.get("cbr") or []:
        net.add_cbr(entry["vc"], route=list(entry["route"]),
                    rate_mbps=float(entry["rate"]),
                    start=float(entry.get("start", 0.0)),
                    stop=entry.get("stop"))
    for entry in config.get("vbr") or []:
        net.add_vbr(entry["vc"], route=list(entry["route"]),
                    peak_mbps=float(entry["peak"]),
                    mean_on=float(entry["mean_on"]),
                    mean_off=float(entry["mean_off"]),
                    seed=int(entry.get("seed", 0)),
                    start=float(entry.get("start", 0.0)),
                    stop=entry.get("stop"))
    rm_loss = float(config.get("rm_loss", 0.0))
    if rm_loss > 0.0:
        _inject_rm_loss(net, rm_loss, streams)

    duration = float(config.get("duration", 0.25))
    a, b = bottleneck(config).split("->")
    result = AtmRun(net=net, bottleneck=net.trunk(a, b), duration=duration)
    if run:
        net.run(until=duration)
    return result


# ----------------------------------------------------------------------
# the paper's configurations with an explicit algorithm factory
# ----------------------------------------------------------------------
def staggered_start(algorithm_factory: AlgorithmFactory, n_sessions: int = 2,
                    stagger: float = 0.03, duration: float = 0.25,
                    link_rate: float = 150.0,
                    params: AbrParams = PAPER_PARAMS, tracer=None,
                    run: bool = True) -> AtmRun:
    """Packet run of :func:`repro.configs.staggered`."""
    return build_atm(staggered(n_sessions, stagger, duration, link_rate,
                               session_params=asdict(params)),
                     algorithm_factory=algorithm_factory, tracer=tracer,
                     run=run)


def rtt_spread(algorithm_factory: AlgorithmFactory,
               access_delays: tuple[float, ...] = (1e-5, 5e-4, 2e-3),
               duration: float = 0.3, link_rate: float = 150.0,
               params: AbrParams = PAPER_PARAMS, tracer=None,
               run: bool = True) -> AtmRun:
    """Packet run of :func:`repro.configs.rtt`."""
    return build_atm(rtt(access_delays, duration, link_rate,
                         session_params=asdict(params)),
                     algorithm_factory=algorithm_factory, tracer=tracer,
                     run=run)


def on_off(algorithm_factory: AlgorithmFactory, greedy: int = 1,
           bursty: int = 2, on_time: float = 0.02, off_time: float = 0.02,
           duration: float = 0.4, link_rate: float = 150.0,
           params: AbrParams = PAPER_PARAMS,
           seed: int | None = ONOFF_SEED, tracer=None,
           run: bool = True) -> AtmRun:
    """Packet run of :func:`repro.configs.onoff`; ``seed=None``
    gives fixed periods, otherwise they are exponential."""
    return build_atm(onoff(greedy, bursty, on_time, off_time, duration,
                           link_rate, session_params=asdict(params)),
                     algorithm_factory=algorithm_factory, seed=seed,
                     tracer=tracer, run=run)


def parking_lot(algorithm_factory: AlgorithmFactory, hops: int = 3,
                duration: float = 0.3, link_rate: float = 150.0,
                params: AbrParams = PAPER_PARAMS, tracer=None,
                run: bool = True) -> AtmRun:
    """Packet run of :func:`repro.configs.parking`."""
    return build_atm(parking(hops, duration, link_rate,
                             session_params=asdict(params)),
                     algorithm_factory=algorithm_factory, tracer=tracer,
                     run=run)


def transient(algorithm_factory: AlgorithmFactory, duration: float = 0.4,
              join_at: float = 0.1, leave_at: float = 0.25,
              link_rate: float = 150.0, params: AbrParams = PAPER_PARAMS,
              tracer=None, run: bool = True) -> AtmRun:
    """Packet run of :func:`repro.configs.transient`."""
    return build_atm(transient_config(duration, join_at, leave_at, link_rate,
                                      session_params=asdict(params)),
                     algorithm_factory=algorithm_factory, tracer=tracer,
                     run=run)
