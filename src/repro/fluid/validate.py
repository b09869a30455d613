"""Packet-vs-fluid validation: the fluid tier's accuracy contract.

Each named configuration runs on both tiers from one scenario config
(:mod:`repro.configs`) and the runs are compared metric by
metric — steady per-session rates, Jain index,
utilisation, queue bounds.  The tolerances below are *committed*: they
were measured once (see docs/FLUID.md for the full table and the
reasoning behind each band) and the suite fails when the models drift
apart further than that.

Two tolerance regimes:

* **greedy** configurations converge to the Phantom fixed point in both
  models; the residual gap is packet-side quantisation (cell-granular
  residual metering through the asymmetric MACR filter reads a few
  percent under the fluid fixed point), so the band is tight;
* **bursty** configurations (E02 on/off) compare *different stochastic
  realisations* — the fluid cohort draws its exponential phases from
  the same named streams but integrates them as rates — so only the
  time-average allocation is comparable, with a wide band.
"""

from __future__ import annotations

from typing import Any

from repro.configs import onoff, parking, staggered, transient
from repro.core import PhantomAlgorithm
from repro.fluid import scenarios as fluid
from repro.scenarios.generic import build_atm

#: Committed accuracy bands, measured at the default configurations
#: below (see docs/FLUID.md for the validation table).
TOLERANCES: dict[str, float] = {
    # greedy steady rates: packet vs fluid, relative
    "greedy_rate_rel": 0.08,
    # greedy steady rates under RM loss: the packet loop converges via
    # the Trm backstop with extra jitter, relative
    "loss_rate_rel": 0.12,
    # on/off time-average rates: different stochastic realisations,
    # relative
    "bursty_rate_rel": 0.25,
    # Jain index over steady rates, absolute
    "jain_abs": 0.05,
    # Jain index over bursty steady rates: inherits the realisation
    # spread of the underlying rates, absolute
    "bursty_jain_abs": 0.10,
    # bottleneck utilisation over the steady window, absolute
    "utilization_abs": 0.06,
    # bottleneck queue peak over the whole run, absolute cells — a
    # boundedness check, not a trajectory match (packet queues are
    # cell-granular, fluid queues are integrals)
    "queue_abs_cells": 250.0,
}


def _row(scenario: str, metric: str, packet_value: float,
         fluid_value: float, tolerance_key: str) -> dict[str, Any]:
    tolerance = TOLERANCES[tolerance_key]
    if tolerance_key.endswith("_rel"):
        scale = max(abs(packet_value), 1e-12)
        error = abs(fluid_value - packet_value) / scale
    else:
        error = abs(fluid_value - packet_value)
    return {
        "scenario": scenario,
        "metric": metric,
        "packet": packet_value,
        "fluid": fluid_value,
        "error": error,
        "tolerance": tolerance,
        "tolerance_key": tolerance_key,
        "ok": error <= tolerance,
    }


def _common_rows(scenario: str, packet_run, fluid_run,
                 rate_tolerance: str,
                 utilization_sessions: tuple[str, ...] | None = None,
                 ) -> list[dict[str, Any]]:
    """Rate / fairness / utilisation / queue rows shared by every pair.

    ``utilization_sessions`` restricts the packet-side utilisation sum
    to the named sessions: the packet ``AtmRun.utilization`` divides the
    sum over *all* sessions by one link rate, which over-counts on
    multi-hop topologies, while the fluid handle already filters to the
    cohorts crossing the bottleneck.
    """
    rows = []
    packet_rates = packet_run.steady_rates()
    fluid_rates = fluid_run.steady_rates()
    if set(packet_rates) != set(fluid_rates):
        raise ValueError(
            f"{scenario}: session names diverge between models: "
            f"{sorted(packet_rates)} vs {sorted(fluid_rates)}")
    for name in sorted(packet_rates):
        rows.append(_row(scenario, f"rate.{name}", packet_rates[name],
                         fluid_rates[name], rate_tolerance))
    jain_tolerance = ("bursty_jain_abs"
                      if rate_tolerance == "bursty_rate_rel"
                      else "jain_abs")
    rows.append(_row(scenario, "jain", packet_run.jain(),
                     fluid_run.jain(), jain_tolerance))
    if utilization_sessions is None:
        packet_util = packet_run.utilization()
    else:
        packet_util = (sum(packet_rates[s] for s in utilization_sessions)
                       / packet_run.bottleneck.rate_mbps)
    rows.append(_row(scenario, "utilization", packet_util,
                     fluid_run.utilization(), "utilization_abs"))
    rows.append(_row(scenario, "queue.max",
                     packet_run.queue_stats()["max"],
                     fluid_run.queue_stats()["max"], "queue_abs_cells"))
    return rows


def _both(config: dict[str, Any], seed: int = 0):
    """``(packet run, fluid run)`` of one config under Phantom."""
    return (build_atm(config, algorithm_factory=PhantomAlgorithm, seed=seed),
            fluid.build_fluid(config, seed=seed))


def compare_staggered(n_sessions: int = 2,
                      duration: float = 0.25) -> list[dict[str, Any]]:
    """E01: n greedy sessions joining a 150 Mb/s bottleneck."""
    p, f = _both(staggered(n_sessions=n_sessions, duration=duration))
    return _common_rows(f"e01_staggered_n{n_sessions}", p, f,
                        "greedy_rate_rel")


def compare_onoff(duration: float = 0.5,
                  seed: int = 7) -> list[dict[str, Any]]:
    """E02: one greedy session against two on/off sessions.

    Both models draw exponential phases from the same named streams but
    consume them differently (events vs rate toggles), so this compares
    time-average allocations across realisations — bursty band.
    """
    p, f = _both(onoff(duration=duration), seed=seed)
    return _common_rows(f"e02_onoff_seed{seed}", p, f, "bursty_rate_rel")


def compare_parking(hops: int = 3,
                    duration: float = 0.3) -> list[dict[str, Any]]:
    """E05: the multi-hop beat-down configuration."""
    p, f = _both(parking(hops=hops, duration=duration))
    return _common_rows(f"e05_parking_{hops}hop", p, f,
                        "greedy_rate_rel",
                        utilization_sessions=("long", "cross0"))


def compare_transient(duration: float = 0.4) -> list[dict[str, Any]]:
    """Join/leave transient: the survivor must reclaim the single-session
    share in both models."""
    p, f = _both(transient(duration=duration))
    rows = []
    # steady window covers the post-departure reclaim only; the visitor
    # is silent there, so compare the base session's reclaimed rate
    rows.append(_row("transient", "rate.base",
                     p.steady_rates()["base"],
                     f.steady_rates()["base"], "greedy_rate_rel"))
    rows.append(_row("transient", "queue.max",
                     p.queue_stats()["max"],
                     f.queue_stats()["max"], "queue_abs_cells"))
    return rows


def compare_rm_loss(loss: float = 0.01,
                    duration: float = 0.4) -> list[dict[str, Any]]:
    """RM loss: both control loops must hold the same fixed point.

    Packet side: each session's backward access link drops that fraction
    of the cells.  Fluid side: the same loss fraction thins the per-Δt
    RM mass, which stretches time constants but leaves the fixed point —
    the property under test.
    """
    p, f = _both({**staggered(n_sessions=2, duration=duration),
                  "rm_loss": loss})
    switch = p.net.switches["S1"]
    if not any(switch._backward[vc].lost for vc in p.net.sessions):
        raise RuntimeError("loss injection inactive: no cell was lost")
    return _common_rows(f"rm_loss_{loss:g}", p, f, "loss_rate_rel")


def validation_rows() -> list[dict[str, Any]]:
    """Run every packet-vs-fluid pair; one row per compared metric."""
    rows: list[dict[str, Any]] = []
    rows.extend(compare_staggered(n_sessions=2))
    rows.extend(compare_staggered(n_sessions=5, duration=0.3))
    rows.extend(compare_onoff())
    rows.extend(compare_parking())
    rows.extend(compare_transient())
    rows.extend(compare_rm_loss())
    return rows


def failures(rows: list[dict[str, Any]]) -> list[str]:
    """Human-readable description of every out-of-tolerance row."""
    return [
        f"{row['scenario']}.{row['metric']}: packet {row['packet']:.4g} "
        f"vs fluid {row['fluid']:.4g} — error {row['error']:.4g} > "
        f"{row['tolerance_key']} {row['tolerance']:g}"
        for row in rows if not row["ok"]
    ]


__all__ = ["TOLERANCES", "validation_rows", "failures",
           "compare_staggered", "compare_onoff", "compare_parking",
           "compare_transient", "compare_rm_loss"]
