"""Rate-based fluid model of Phantom-controlled ABR networks.

The packet engine simulates every cell; its cost scales with offered
*traffic*.  This tier steps the same control laws as difference
equations once per Phantom averaging interval Δt, so its cost scales
with the number of *flow cohorts* — a trunk carrying a million flows in
a handful of cohorts costs the same per simulated second as one
carrying two.

The pieces mirror the packet engine one-for-one:

* :class:`FluidTrunk` — one output port.  It reuses the real
  :class:`repro.core.macr.MacrFilter` (same asymmetric gains, same
  deviation damping), fed the interval residual ``C − offered`` exactly
  as :class:`repro.core.residual.ResidualMeter` would measure it on a
  lossless fluid.  The queue is the integral of (arrival − service)
  clamped at zero, in cells.
* :class:`FlowCohort` — ``count`` identical ABR sources sharing one
  route and one :class:`~repro.atm.params.AbrParams`.  Identical
  sources receive identical grants and therefore evolve identically,
  so one ACR value represents the whole cohort exactly (not
  approximately) — that symmetry is where the cost independence comes
  from.  Cohorts are stepped in :class:`repro.fluid.stepper.FlowGroup`
  batches over ``array('d')`` columns.
* :class:`FluidNetwork` — the clock.  ``now`` is ``steps · Δt``
  (drift-free); demand changes (staggered starts, on/off toggles,
  departures) are events quantised to the interval grid.

Hybrid coupling (:mod:`repro.fluid.hybrid`) drives two attributes of
:class:`FluidTrunk`: ``external_grant`` replaces the trunk's own MACR
grant with a packet-side Phantom port's grant, and
``service_deduction_mbps`` models foreground packet traffic occupying
the trunk.  Both default to inert values; pure-fluid behaviour is the
``None``/``0.0`` path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.atm.params import AbrParams, PAPER_PARAMS
from repro.core.macr import MacrFilter
from repro.core.params import DEFAULT_PHANTOM_PARAMS, PhantomParams
from repro.fluid.stepper import FlowGroup, rate_cells_per_interval
from repro.sim.probe import Probe, StepProbe
from repro.sim.rng import RngStreams


class FluidTrunk:
    """One Phantom-controlled output port in the fluid model."""

    __slots__ = ("name", "capacity_mbps", "params", "filter",
                 "queue_cells", "arrivals_mbps", "offered_mbps",
                 "grant_now", "external_grant", "service_deduction_mbps",
                 "macr_probe", "queue_probe", "offered_probe")

    def __init__(self, name: str, capacity_mbps: float,
                 params: PhantomParams):
        self.name = name
        self.capacity_mbps = capacity_mbps
        self.params = params
        self.filter = MacrFilter(capacity_mbps, params)
        self.queue_cells = 0.0
        #: Aggregate fluid arrival rate accumulated by the groups during
        #: the current interval; reset when the step closes.
        self.arrivals_mbps = 0.0
        self.offered_mbps = 0.0
        self.grant_now = 0.0
        #: When set (hybrid mode), this trunk grants exactly this rate
        #: instead of running its own MACR filter.
        self.external_grant: float | None = None
        #: Mb/s of the trunk occupied by traffic outside the fluid model
        #: (the packet-accurate foreground in hybrid mode).
        self.service_deduction_mbps = 0.0
        self.macr_probe = Probe(f"{name}.macr")
        self.macr_probe.record(0.0, self.filter.macr)
        self.queue_probe = StepProbe(f"{name}.queue")
        self.queue_probe.record(0.0, 0.0)
        self.offered_probe = StepProbe(f"{name}.offered")

    @property
    def macr(self) -> float:
        """Current MACR estimate in Mb/s."""
        return self.filter.macr

    def _refresh_grant(self) -> None:
        """Recompute the rate granted to sources for the next interval."""
        if self.external_grant is not None:
            self.grant_now = self.external_grant
        else:
            p = self.params
            self.grant_now = max(
                p.utilization_factor * self.filter.macr,
                p.grant_floor_fraction * self.capacity_mbps)

    def _close_step(self, t_next: float, dt: float) -> None:
        """Fold the interval's aggregate into queue, MACR, and probes."""
        offered = self.arrivals_mbps + self.service_deduction_mbps
        self.arrivals_mbps = 0.0
        self.offered_mbps = offered
        queue = self.queue_cells + rate_cells_per_interval(
            offered - self.capacity_mbps, dt)
        if queue < 0.0:
            queue = 0.0
        self.queue_cells = queue
        if self.external_grant is None:
            # the residual the packet-side ResidualMeter would report
            # for a lossless fluid carrying the same aggregate
            self.filter.update(self.capacity_mbps - offered)
        self.macr_probe.record(t_next, self.filter.macr)
        self.queue_probe.record(t_next, queue)
        self.offered_probe.record(t_next, offered)


class FlowCohort:
    """``count`` identical ABR sources sharing a route and parameters."""

    __slots__ = ("name", "route", "count", "params", "weight",
                 "demand_mbps", "on_time", "off_time", "rm_loss",
                 "group", "index", "rate_probe",
                 "_rng", "_on", "_went_off", "_net")

    def __init__(self, net: "FluidNetwork", name: str,
                 route: tuple[str, ...], count: int, params: AbrParams,
                 demand_mbps: float | None, on_time: float | None,
                 off_time: float | None, rm_loss: float):
        self.name = name
        self.route = route
        self.count = count
        self.params = params
        self.weight = params.weight
        self.demand_mbps = demand_mbps
        self.on_time = on_time
        self.off_time = off_time
        self.rm_loss = rm_loss
        self.group: FlowGroup | None = None
        self.index = -1
        self.rate_probe = Probe(f"{name}.rate")
        self._rng = None
        self._on = True
        self._went_off: float | None = None
        self._net = net

    # ------------------------------------------------------------------
    @property
    def full_demand(self) -> float:
        """Demand while active: the configured rate, or greedy (PCR)."""
        if self.demand_mbps is not None:
            return self.demand_mbps
        return self.params.pcr

    @property
    def acr(self) -> float:
        """Per-flow allowed cell rate (Mb/s)."""
        if self.group is None:
            return self.params.icr
        return self.group.acr[self.index]

    @property
    def send_mbps(self) -> float:
        """Per-flow sending rate (Mb/s) — min(ACR, demand)."""
        if self.group is None:
            return 0.0
        acr = self.group.acr[self.index]
        demand = self.group.dem[self.index]
        return acr if acr < demand else demand

    # ------------------------------------------------------------------
    def set_active(self, active: bool) -> None:
        """Start or silence the cohort (packet ``set_active`` twin).

        Reactivation after more than ``idle_reset`` seconds of silence
        falls back to ICR, mirroring the end-system's use-it-or-lose-it
        rule.
        """
        group = self.group
        if group is None:
            raise RuntimeError(
                f"cohort {self.name!r}: network not started")
        now = self._net.now
        if active:
            idle_reset = self.params.idle_reset
            if (self._went_off is not None and idle_reset is not None
                    and now - self._went_off > idle_reset):
                group.acr[self.index] = group.icr
            group.dem[self.index] = self.full_demand
        else:
            self._went_off = now
            group.dem[self.index] = 0.0

    def _toggle(self) -> None:
        self._on = not self._on
        self.set_active(self._on)
        self._net.at(self._net.now + self._draw_duration(), self._toggle)

    def _draw_duration(self) -> float:
        """Length of the phase just entered (exponential when seeded)."""
        mean = self.on_time if self._on else self.off_time
        if self._rng is None:
            return mean
        return self._rng.expovariate(1.0 / mean)


class FluidNetwork:
    """A fluid-stepped network of trunks and flow cohorts."""

    def __init__(self, phantom: PhantomParams = DEFAULT_PHANTOM_PARAMS,
                 mode: str = "er", use_ni: bool = False,
                 ni_fraction: float = 0.8, seed: int | None = 0,
                 tracer=None, record_cohorts: bool = True):
        if mode not in ("er", "binary"):
            raise ValueError(f"mode must be 'er' or 'binary', got {mode!r}")
        self.phantom = phantom
        self.dt = phantom.interval
        self.mode = mode
        self.use_ni = use_ni
        self.ni_fraction = ni_fraction
        #: ``None`` makes on/off phases fixed at their means, exactly as
        #: ``seed=None`` does for the packet scenarios.
        self.seed = seed
        self.rng = RngStreams(seed if seed is not None else 0)
        self.record_cohorts = record_cohorts
        self.steps = 0
        self.trunks: dict[str, FluidTrunk] = {}
        self.cohorts: list[FlowCohort] = []
        self.groups: list[FlowGroup] = []
        self._events: list[tuple[float, int, Callable[[], None]]] = []
        self._event_seq = 0
        self._started = False
        # same hook discipline as the packet components: gate once on
        # the "fluid" category, None means no per-step emission at all
        self._tracer = (tracer.gate("fluid") if tracer is not None
                        else None)

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Simulated time (s), always ``steps · Δt`` — drift-free."""
        return self.steps * self.dt

    def add_trunk(self, name: str, capacity_mbps: float = 150.0,
                  phantom: PhantomParams | None = None) -> FluidTrunk:
        if self._started:
            raise RuntimeError("network already started")
        if name in self.trunks:
            raise ValueError(f"duplicate trunk {name!r}")
        trunk = FluidTrunk(name, capacity_mbps, phantom or self.phantom)
        self.trunks[name] = trunk
        return trunk

    def add_cohort(self, name: str, route: list[str] | tuple[str, ...],
                   count: int = 1, params: AbrParams = PAPER_PARAMS,
                   start: float = 0.0, demand_mbps: float | None = None,
                   on_time: float | None = None,
                   off_time: float | None = None, rm_loss: float = 0.0,
                   feedback_delay: float | None = None,
                   forward_delays: tuple[float, ...] | None = None,
                   stream: str | None = None) -> FlowCohort:
        """Add ``count`` identical flows on ``route`` as one cohort.

        A bursty cohort draws its phases from the random stream named
        ``stream`` (default: the cohort's name)."""
        if self._started:
            raise RuntimeError("network already started")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        if not 0.0 <= rm_loss < 1.0:
            raise ValueError(f"rm_loss must be in [0, 1), got {rm_loss!r}")
        route = tuple(route)
        for hop in route:
            if hop not in self.trunks:
                raise KeyError(f"unknown trunk {hop!r} in route")
        if (on_time is None) != (off_time is None):
            raise ValueError("on_time and off_time go together")
        cohort = FlowCohort(self, name, route, count, params,
                            demand_mbps, on_time, off_time, rm_loss)
        # feedback lag quantised to intervals; the default (0 slots) has
        # sources react to the freshest grant within the same interval,
        # matching packet sources whose RM round trip is short vs Δt
        delay_slots = 0
        if feedback_delay is not None:
            delay_slots = max(0, int(round(feedback_delay / self.dt)))
        group = self._group_for(route, delay_slots, params, rm_loss,
                                forward_delays)
        cohort.group = group
        active_now = start <= 0.0 and on_time is None
        cohort.index = group.add(
            cohort, cohort.full_demand if active_now else 0.0)
        if on_time is not None:
            # bursty: exponential phases when seeded (fixed otherwise),
            # drawn from the cohort's named stream in the same order as
            # the packet OnOffDriver (one draw now, one per toggle)
            if self.seed is not None:
                cohort._rng = self.rng.stream(stream or name)
            first = start + cohort._draw_duration()
            self.at(start, lambda: cohort.set_active(True))
            self.at(first, cohort._toggle)
        elif start > 0.0:
            self.at(start, lambda: cohort.set_active(True))
        self.cohorts.append(cohort)
        return cohort

    def _group_for(self, route: tuple[str, ...], delay_slots: int,
                   params: AbrParams, rm_loss: float,
                   forward_delays: tuple[float, ...] | None) -> FlowGroup:
        key = (route, delay_slots, params, rm_loss, forward_delays)
        for group in self.groups:
            if (group.route, group.delay_slots, group.params,
                    group.rm_loss, group.forward_delays) == key:
                return group
        trunks = [self.trunks[hop] for hop in route]
        group = FlowGroup(route, trunks, params, self.dt, delay_slots,
                          rm_loss, self.mode, self.use_ni,
                          self.ni_fraction, forward_delays)
        self.groups.append(group)
        return group

    def capacities(self) -> dict[str, float]:
        """Trunk capacities in Mb/s keyed by trunk name — the link set
        in :func:`repro.core.fairness.max_min_allocation` form."""
        return {name: trunk.capacity_mbps
                for name, trunk in self.trunks.items()}

    def routes(self) -> dict[str, list[str]]:
        """Each cohort's route as the trunk names it crosses.

        One entry per *cohort*, not per flow — a cohort of ``count``
        identical flows is one oracle session whose fair share is the
        whole cohort's (give it ``weight = count ·
        params.weight`` and divide the allocation by ``count`` for the
        per-flow rate, as :mod:`repro.obs.health` does)."""
        return {cohort.name: list(cohort.route)
                for cohort in self.cohorts}

    # ------------------------------------------------------------------
    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Run ``fn`` at the start of the interval covering ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < "
                             f"{self.now})")
        self._event_seq += 1
        heappush(self._events, (time, self._event_seq, fn))

    def start(self) -> None:
        """Freeze topology: compute initial grants, prime delay rings."""
        if self._started:
            return
        self._started = True
        for trunk in self.trunks.values():
            trunk._refresh_grant()
        for group in self.groups:
            group.prime()

    def advance(self) -> None:
        """Step the whole network one averaging interval Δt."""
        if not self._started:
            self.start()
        now = self.steps * self.dt
        events = self._events
        horizon = now + self.dt * 1e-9
        while events and events[0][0] <= horizon:
            heappop(events)[2]()
        for trunk in self.trunks.values():
            trunk._refresh_grant()
        for group in self.groups:
            group.step()
        if self.record_cohorts:
            for cohort in self.cohorts:
                group = cohort.group
                acr = group.acr[cohort.index]
                demand = group.dem[cohort.index]
                cohort.rate_probe.record(
                    now, acr if acr < demand else demand)
        t_next = (self.steps + 1) * self.dt
        for trunk in self.trunks.values():
            trunk._close_step(t_next, self.dt)
        tracer = self._tracer
        if tracer is not None:
            for trunk in self.trunks.values():
                tracer.emit(t_next, "fluid.step", trunk.name,
                            macr=trunk.filter.macr,
                            queue=trunk.queue_cells,
                            offered=trunk.offered_mbps,
                            grant=trunk.grant_now)
        self.steps += 1

    def run(self, until: float) -> None:
        """Advance to simulated time ``until`` (whole intervals)."""
        self.start()
        target = int(round(until / self.dt))
        while self.steps < target:
            self.advance()
