"""Scenario run handles.

Every scenario builder returns one of these wrappers, so tests, examples
and benchmarks read results through a single vocabulary: steady-state
rates, fairness, utilisation, queue statistics, and the probe series the
paper's figures plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.analysis import jain_index, queue_stats, utilization
from repro.atm.network import AtmNetwork
from repro.atm.port import OutputPort
from repro.sim import Probe
from repro.tcp.network import TcpNetwork
from repro.tcp.router import PacketPort


@dataclass
class AtmRun:
    """A completed ATM scenario, with the config it was built from
    (what :mod:`repro.obs.judge` reads its gates from)."""

    net: AtmNetwork
    bottleneck: OutputPort
    duration: float
    config: Mapping[str, Any] | None = None

    @property
    def queue_probe(self) -> Probe:
        return self.bottleneck.queue_probe

    @property
    def macr_probe(self) -> Probe | None:
        return getattr(self.bottleneck.algorithm, "macr_probe", None)

    def steady_window(self, fraction: float = 0.25) -> tuple[float, float]:
        """The last ``fraction`` of the run, where steady state is read."""
        return self.duration * (1 - fraction), self.duration

    def steady_rates(self, fraction: float = 0.25) -> dict[str, float]:
        """Mean goodput per session over the steady window (Mb/s)."""
        start, end = self.steady_window(fraction)
        return {
            vc: session.rate_probe.window(start, end).mean()
            for vc, session in self.net.sessions.items()
        }

    def jain(self, fraction: float = 0.25) -> float:
        return jain_index(self.steady_rates(fraction).values())

    def utilization(self, fraction: float = 0.25) -> float:
        start, end = self.steady_window(fraction)
        probes = [s.rate_probe for s in self.net.sessions.values()]
        return utilization(probes, self.bottleneck.rate_mbps, start, end)

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return queue_stats(self.queue_probe, start, end or self.duration)


@dataclass
class TcpRun:
    """A completed TCP scenario."""

    net: TcpNetwork
    bottleneck: PacketPort
    duration: float

    @property
    def queue_probe(self) -> Probe:
        return self.bottleneck.queue_probe

    @property
    def macr_probe(self) -> Probe | None:
        return getattr(self.bottleneck.policy, "macr_probe", None)

    def goodputs(self) -> dict[str, float]:
        """Whole-run goodput per flow (Mb/s)."""
        return {
            name: flow.sink.bytes_received * 8 / self.duration / 1e6
            for name, flow in self.net.flows.items()
        }

    def jain(self) -> float:
        return jain_index(self.goodputs().values())

    def total_goodput(self) -> float:
        return sum(self.goodputs().values())

    def queue_stats(self, start: float = 0.0,
                    end: float | None = None) -> dict[str, float]:
        return queue_stats(self.queue_probe, start, end or self.duration)
