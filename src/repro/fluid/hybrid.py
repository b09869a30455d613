"""Hybrid packet/fluid coupling.

A handful of foreground sessions stay packet-accurate in the event
kernel while background aggregates run in the fluid tier, and the two
meet at each coupled trunk:

* **demand**: the fluid aggregate's per-interval cell count is pushed
  into the packet port's Phantom residual meter through
  :attr:`~repro.core.phantom.PhantomAlgorithm.demand_hook`, so MACR
  measures the *combined* offered load and grants accordingly;
* **grant**: the fluid trunk's :attr:`external_grant` mirrors the
  packet port's ``granted_rate``, so background cohorts obey the same
  explicit rate the foreground RM cells carry;
* **service**: the packet port serves its queue at line rate minus the
  fluid aggregate (:meth:`~repro.atm.port.OutputPort.set_service_deduction`),
  and the fluid trunk's queue accounting sees the foreground rate as
  :attr:`service_deduction_mbps`.

Timing contract (documented in docs/FLUID.md): the coupling ticks every
Δt *after* the packet Phantom timers for the same instant (it is
started later, so the event kernel's FIFO tie-break orders it second).
Each tick feeds the fluid offered load of interval *k* to the residual
meter that will close interval *k+1*, and deducts it from the packet
service rate for interval *k+1* — a one-interval lag, the fluid
analogue of propagation through the trunk.  The foreground rate seen by
the fluid side lags one interval for the same reason.
"""

from __future__ import annotations

from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
from repro.core.phantom import PhantomAlgorithm
from repro.fluid.model import FluidNetwork, FluidTrunk
from repro.fluid.results import FluidRun, HybridRun
from repro.fluid.stepper import cells_to_mbps, rate_cells_per_interval
from repro.scenarios import generic as packet
from repro.sim import PeriodicTimer


class _DemandFeed:
    """Cell accumulator handed to a Phantom port as its demand hook."""

    __slots__ = ("cells",)

    def __init__(self) -> None:
        self.cells = 0.0

    def take(self) -> float:
        cells = self.cells
        self.cells = 0.0
        return cells


class _Pair:
    """One coupled (packet port, fluid trunk) trunk."""

    __slots__ = ("port", "trunk", "alg", "feed", "last_arrivals")

    def __init__(self, port, trunk: FluidTrunk,
                 alg: PhantomAlgorithm, feed: _DemandFeed) -> None:
        self.port = port
        self.trunk = trunk
        self.alg = alg
        self.feed = feed
        self.last_arrivals = port.arrivals


class HybridCoupling:
    """Drives a fluid network in lock-step with a packet simulation."""

    def __init__(self, atm_net, fluid_net: FluidNetwork) -> None:
        self.atm = atm_net
        self.fluid = fluid_net
        self.pairs: list[_Pair] = []
        self.timer: PeriodicTimer | None = None

    def couple(self, port, trunk: FluidTrunk) -> None:
        """Couple a packet output port with its fluid mirror trunk."""
        alg = port.algorithm
        if not hasattr(alg, "demand_hook"):
            raise TypeError(
                f"port {port.name!r} runs {alg.name!r}, which has no "
                f"demand_hook — hybrid coupling needs Phantom")
        feed = _DemandFeed()
        alg.demand_hook = feed.take
        trunk.external_grant = alg.granted_rate
        self.pairs.append(_Pair(port, trunk, alg, feed))

    def start(self) -> None:
        """Arm the per-Δt tick; must run before the packet simulation.

        The fluid side is pre-stepped once so the packet Phantom close
        at t = Δt already sees the background demand of [0, Δt).
        """
        if self.timer is not None:
            raise RuntimeError("coupling already started")
        dt = self.fluid.dt
        for pair in self.pairs:
            interval = pair.alg.params.interval
            if interval != dt:
                raise ValueError(
                    f"port {pair.port.name!r} interval {interval} != "
                    f"fluid Δt {dt}; the coupling is defined per shared "
                    f"averaging interval")
        self.fluid.start()
        self._step_once()
        self.timer = PeriodicTimer(self.atm.sim, dt, self._tick)
        self.timer.start()

    # ------------------------------------------------------------------
    def _tick(self, _timer: PeriodicTimer) -> None:
        self._step_once()

    def _step_once(self) -> None:
        fluid = self.fluid
        dt = fluid.dt
        for pair in self.pairs:
            arrivals = pair.port.arrivals
            fg_cells = arrivals - pair.last_arrivals
            pair.last_arrivals = arrivals
            pair.trunk.service_deduction_mbps = cells_to_mbps(fg_cells, dt)
            pair.trunk.external_grant = pair.alg.granted_rate
        fluid.advance()
        for pair in self.pairs:
            trunk = pair.trunk
            bg_mbps = trunk.offered_mbps - trunk.service_deduction_mbps
            if bg_mbps < 0.0:
                bg_mbps = 0.0
            pair.feed.cells += rate_cells_per_interval(bg_mbps, dt)
            pair.port.set_service_deduction(bg_mbps)


def hybrid_staggered(foreground: int = 2,
                     background: int = 500,
                     background_demand_mbps: float = 0.2,
                     background_cohorts: int = 1,
                     stagger: float = 0.03,
                     duration: float = 0.25,
                     link_rate: float = 150.0,
                     params: AbrParams = PAPER_PARAMS,
                     phantom: PhantomParams | None = None,
                     tracer=None,
                     run: bool = True) -> HybridRun:
    """The hybrid E01 demo: packet foreground, fluid background.

    ``foreground`` sessions join the paper's staggered-start bottleneck
    packet-accurately; ``background`` demand-limited flows (each
    wanting ``background_demand_mbps``, split over
    ``background_cohorts`` fluid cohorts) share the same trunk through
    the coupling.  :func:`packet_twin` is the all-packet reference —
    the validation and perf suites compare foreground rates and
    wall-clock between the two.

    The background is demand-limited, not greedy, on purpose: hundreds
    of *greedy* claimants on one averaging-interval grant form a
    mean-field limit cycle (docs/FLUID.md), and the foreground's sparse
    RM stream samples that oscillation destructively.  A demand-limited
    aggregate is both the realistic many-user workload and one the
    foreground control loop provably converges against: the foreground
    equilibrium is ``f·(C − B)/(n·f + 1)`` for background load B.
    """
    if foreground < 1:
        raise ValueError(f"need >= 1 foreground session, got {foreground!r}")
    if background < 1:
        raise ValueError(f"need >= 1 background flow, got {background!r}")
    load = background * background_demand_mbps
    if load >= link_rate:
        raise ValueError(
            f"background load {load} Mb/s >= link rate {link_rate}")
    phantom = phantom or DEFAULT_PHANTOM_PARAMS
    atm_run = packet.staggered_start(
        lambda: PhantomAlgorithm(phantom), n_sessions=foreground,
        stagger=stagger, duration=duration, link_rate=link_rate,
        params=params, tracer=tracer, run=False)
    fluid_net = FluidNetwork(phantom=phantom, tracer=tracer)
    trunk_name = f"{atm_run.bottleneck.name}:fluid"
    trunk = fluid_net.add_trunk(trunk_name, capacity_mbps=link_rate)
    per_cohort, extra = divmod(background, background_cohorts)
    for i in range(background_cohorts):
        count = per_cohort + (1 if i < extra else 0)
        if count:
            fluid_net.add_cohort(f"bg{i}", route=[trunk_name],
                                 count=count, params=params,
                                 demand_mbps=background_demand_mbps)
    coupling = HybridCoupling(atm_run.net, fluid_net)
    coupling.couple(atm_run.bottleneck, trunk)
    coupling.start()
    fluid_run = FluidRun(net=fluid_net, bottleneck=trunk,
                         duration=duration)
    result = HybridRun(atm=atm_run, fluid=fluid_run, coupling=coupling,
                       duration=duration)
    if run:
        atm_run.net.run(until=duration)
    return result


def packet_twin(foreground: int = 2,
                background: int = 500,
                background_demand_mbps: float = 0.2,
                background_vcs: int = 50,
                stagger: float = 0.03,
                duration: float = 0.25,
                link_rate: float = 150.0,
                params: AbrParams = PAPER_PARAMS,
                phantom: PhantomParams | None = None,
                tracer=None,
                run: bool = True):
    """The all-packet twin of :func:`hybrid_staggered`.

    Foreground sessions keep their names and staggered starts; the
    background aggregate (``background × background_demand_mbps``)
    becomes ``background_vcs`` constant-rate cell streams.  Every
    background cell is simulated — Phantom counts it in the residual
    and the port serialises it — so the twin carries the identical
    trunk load at full packet cost, which is the wall-clock baseline
    the hybrid speedup is measured against.
    """
    phantom = phantom or DEFAULT_PHANTOM_PARAMS
    atm_run = packet.staggered_start(
        lambda: PhantomAlgorithm(phantom), n_sessions=foreground,
        stagger=stagger, duration=duration, link_rate=link_rate,
        params=params, tracer=tracer, run=False)
    load = background * background_demand_mbps
    if load >= link_rate:
        raise ValueError(
            f"background load {load} Mb/s >= link rate {link_rate}")
    for i in range(background_vcs):
        atm_run.net.add_cbr(f"bg{i}", route=["S1", "S2"],
                            rate_mbps=load / background_vcs)
    if run:
        atm_run.net.run(until=duration)
    return atm_run


__all__ = ["HybridCoupling", "hybrid_staggered", "packet_twin"]
