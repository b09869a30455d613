"""Builtin scenario entry points.

Each entry is a module-level function (lint rule EXE001) taking only
JSON-able keyword arguments — algorithm and policy choices travel as
*names* and are resolved here, inside the worker, against the same
tables the CLI uses.  Entries return the run handles the scenario
builders produce (:class:`~repro.scenarios.results.AtmRun` /
``TcpRun`` / ``FluidRun``), which the worker reduces to metrics and
probe digests.

The named ATM configurations (:data:`repro.configs.NAMED`)
register as ``atm.<name>`` and the fluid-tier ones as ``fluid.<name>``;
each entry is one statement that builds the named config and runs it
through :func:`~repro.scenarios.generic.build_atm` or
:func:`~repro.fluid.scenarios.build_fluid`.

Fingerprint roots: every ATM entry declares ``repro.scenarios.generic``
(whose closure holds the config table), every fluid entry
``repro.fluid.scenarios`` and every TCP entry ``repro.scenarios.tcp``;
:func:`atm_param_deps` / :func:`tcp_param_deps` add the module defining
the *chosen* algorithm/policy, so an edit to
``repro/baselines/capc.py`` invalidates only the CAPC tasks.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Mapping, Sequence

from repro.atm import AbrParams
from repro.baselines import (AprcAlgorithm, CapcAlgorithm, EprcaAlgorithm,
                             EricaAlgorithm)
from repro.baselines.aprc import AprcParams
from repro.baselines.capc import CapcParams
from repro.baselines.eprca import EprcaParams
from repro.baselines.erica import EricaParams
from repro.configs import FLUID, NAMED, ONOFF_SEED, Params
from repro.core import (BinaryPhantomAlgorithm, PhantomAlgorithm,
                        PhantomParams)
from repro.exec.registry import register_scenario
from repro.fluid import hybrid as fluid_hybrid
from repro.fluid import scenarios as fluid_scenarios
from repro.fluid.scenarios import build_fluid, phantom_algorithm
from repro.scenarios import generic as generic_scenarios
from repro.scenarios import tcp as tcp_scenarios
from repro.scenarios.results import AtmRun

#: name -> (algorithm class, params class, defining module).  The module
#: is the params-derived fingerprint root: choosing ``"capc"`` makes the
#: task's cache entry sensitive to ``repro/baselines/capc.py`` edits.
ATM_ALGORITHMS: dict[str, tuple[type, type, str]] = {
    "phantom": (PhantomAlgorithm, PhantomParams, "repro.core.phantom"),
    "phantom-binary": (BinaryPhantomAlgorithm, PhantomParams,
                       "repro.core.phantom_binary"),
    "eprca": (EprcaAlgorithm, EprcaParams, "repro.baselines.eprca"),
    "aprc": (AprcAlgorithm, AprcParams, "repro.baselines.aprc"),
    "capc": (CapcAlgorithm, CapcParams, "repro.baselines.capc"),
    "erica": (EricaAlgorithm, EricaParams, "repro.baselines.erica"),
}

#: name -> (policy-factory function, defining module).
TCP_POLICIES: dict[str, tuple[Any, str]] = {
    "drop-tail": (tcp_scenarios.drop_tail_policy, "repro.tcp.router"),
    "selective-discard": (tcp_scenarios.selective_discard_policy,
                          "repro.tcp.phantom_router"),
    "quench": (tcp_scenarios.selective_quench_policy,
               "repro.tcp.phantom_router"),
    "efci": (tcp_scenarios.selective_efci_policy,
             "repro.tcp.phantom_router"),
    "selective-red": (tcp_scenarios.selective_red_policy,
                      "repro.tcp.phantom_router"),
}


def _lookup(table: Mapping[str, Any], name: str, what: str):
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(f"unknown {what} {name!r}; known: {known}") \
            from None


def _algorithm_factory(algorithm: str,
                       algorithm_params: Mapping[str, Any] | None):
    """Zero-arg factory for the named switch algorithm."""
    cls, params_cls, _ = _lookup(ATM_ALGORITHMS, algorithm, "algorithm")
    opts = dict(algorithm_params or {})
    # binary Phantom's marking knobs are constructor arguments, not
    # PhantomParams fields
    extra = {key: opts.pop(key) for key in ("use_ni", "ni_fraction")
             if key in opts} if algorithm == "phantom-binary" else {}
    return partial(cls, params_cls(**opts), **extra)


def _policy_factory(policy: str,
                    policy_params: Mapping[str, Any] | None):
    """Picklable policy factory for the named router mechanism."""
    factory_fn, _ = _lookup(TCP_POLICIES, policy, "policy")
    opts = dict(policy_params or {})
    if "params" in opts:
        opts["params"] = PhantomParams(**opts["params"])
    return factory_fn(**opts)


def atm_param_deps(params: dict) -> tuple[str, ...]:
    algorithm = params.get("algorithm", "phantom")
    return (_lookup(ATM_ALGORITHMS, algorithm, "algorithm")[2],)


def tcp_param_deps(params: dict) -> tuple[str, ...]:
    policy = params.get("policy", "selective-discard")
    return (_lookup(TCP_POLICIES, policy, "policy")[1],)


# ----------------------------------------------------------------------
# ATM entries
# ----------------------------------------------------------------------
def _build_atm(config: Mapping[str, Any],
               seed: int | None = None) -> AtmRun:
    """A config on the packet tier, its algorithm resolved by name."""
    return generic_scenarios.build_atm(
        config,
        algorithm_factory=_algorithm_factory(
            config.get("algorithm", "phantom"),
            config.get("algorithm_params")),
        seed=seed)


def atm_config(config: Mapping[str, Any],
               seed: int | None = None) -> AtmRun:
    """``fuzz.generic``: the spec's inline ``config`` carries the whole
    scenario (topology, sessions, schedules, algorithm).  A spec without
    a seed runs under seed 0, so its on/off periods are still drawn."""
    return _build_atm(config, 0 if seed is None else seed)


def atm_staggered(**params) -> AtmRun:
    return _build_atm(NAMED["staggered"](**params))


def atm_rtt(**params) -> AtmRun:
    return _build_atm(NAMED["rtt"](**params))


def atm_onoff(seed: int | None = ONOFF_SEED, **params) -> AtmRun:
    return _build_atm(NAMED["onoff"](**params), seed)


def atm_parking(**params) -> AtmRun:
    return _build_atm(NAMED["parking"](**params))


def atm_transient(**params) -> AtmRun:
    return _build_atm(NAMED["transient"](**params))


def atm_background(**params) -> AtmRun:
    return _build_atm(NAMED["background"](**params))


def atm_weighted(**params) -> AtmRun:
    return _build_atm(NAMED["weighted"](**params))


def fuzz_param_deps(params: dict) -> tuple[str, ...]:
    config = params.get("config") or {}
    algorithm = config.get("algorithm", "phantom")
    return (_lookup(ATM_ALGORITHMS, algorithm, "algorithm")[2],)


# ----------------------------------------------------------------------
# fluid entries
# ----------------------------------------------------------------------
def _phantom_params(phantom_params: Mapping[str, Any] | None):
    """``phantom=`` kwarg for fluid builders, or nothing for defaults."""
    if phantom_params is None:
        return {}
    return {"phantom": PhantomParams(**phantom_params)}


def _abr_params(session_params: Mapping[str, Any] | None) -> dict:
    """``params=`` kwarg for fluid builders, or nothing for defaults."""
    if session_params is None:
        return {}
    return {"params": AbrParams(**session_params)}


def fluid_staggered(flows_per_session: int = 1, mode: str = "er",
                    use_ni: bool = False, ni_fraction: float = 0.8,
                    rm_loss: float = 0.0, phantom_params: Params = None,
                    **params):
    law = phantom_algorithm(phantom_params, mode, use_ni, ni_fraction)
    return build_fluid({**NAMED["staggered"](**params, **law),
                        "rm_loss": rm_loss},
                       flows_per_session=flows_per_session)


def fluid_onoff(seed: int | None = ONOFF_SEED, flows_per_session: int = 1,
                phantom_params: Params = None, **params):
    return build_fluid(
        NAMED["onoff"](**params, **phantom_algorithm(phantom_params)),
        flows_per_session=flows_per_session, seed=seed)


def fluid_parking(flows_per_session: int = 1, phantom_params: Params = None,
                  **params):
    return build_fluid(
        NAMED["parking"](**params, **phantom_algorithm(phantom_params)),
        flows_per_session=flows_per_session)


def fluid_transient(flows_per_session: int = 1,
                    phantom_params: Params = None, **params):
    return build_fluid(
        NAMED["transient"](**params, **phantom_algorithm(phantom_params)),
        flows_per_session=flows_per_session)


def fluid_many(cohorts: int = 1000, flows_per_cohort: int = 1000,
               greedy: int = 100, background_load: float = 0.7,
               duration: float = 1.0, link_rate: float = 10000.0,
               record_cohorts: bool = False,
               session_params: Mapping[str, Any] | None = None,
               phantom_params: Mapping[str, Any] | None = None):
    return fluid_scenarios.many_flows(
        cohorts=cohorts, flows_per_cohort=flows_per_cohort,
        greedy=greedy, background_load=background_load,
        duration=duration, link_rate=link_rate,
        record_cohorts=record_cohorts, **_abr_params(session_params),
        **_phantom_params(phantom_params))


def fluid_hybrid_e01(foreground: int = 2, background: int = 500,
                     background_demand_mbps: float = 0.2,
                     stagger: float = 0.03, duration: float = 0.25,
                     link_rate: float = 150.0,
                     session_params: Mapping[str, Any] | None = None,
                     phantom_params: Mapping[str, Any] | None = None):
    return fluid_hybrid.hybrid_staggered(
        foreground=foreground, background=background,
        background_demand_mbps=background_demand_mbps, stagger=stagger,
        duration=duration, link_rate=link_rate,
        **_abr_params(session_params), **_phantom_params(phantom_params))


# ----------------------------------------------------------------------
# TCP entries
# ----------------------------------------------------------------------
def tcp_rtt(policy: str = "selective-discard",
            policy_params: Mapping[str, Any] | None = None,
            access_delays: Sequence[float] = (1e-3, 4e-3),
            duration: float = 30.0, trunk_rate: float = 10.0):
    return tcp_scenarios.rtt_fairness(
        _policy_factory(policy, policy_params),
        access_delays=tuple(access_delays), duration=duration,
        trunk_rate=trunk_rate)


def tcp_parking(policy: str = "selective-discard",
                policy_params: Mapping[str, Any] | None = None,
                hops: int = 3, duration: float = 30.0,
                trunk_rate: float = 10.0):
    return tcp_scenarios.tcp_parking_lot(
        _policy_factory(policy, policy_params),
        hops=hops, duration=duration, trunk_rate=trunk_rate)


def tcp_many(policy: str = "selective-discard",
             policy_params: Mapping[str, Any] | None = None,
             n_flows: int = 4, duration: float = 30.0,
             trunk_rate: float = 10.0, access_delay: float = 2e-3):
    return tcp_scenarios.many_flows(
        _policy_factory(policy, policy_params),
        n_flows=n_flows, duration=duration, trunk_rate=trunk_rate,
        access_delay=access_delay)


def tcp_vegas(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              hungry: Sequence[float] = (8.0, 10.0),
              modest: Sequence[float] = (1.0, 2.0),
              duration: float = 30.0, trunk_rate: float = 10.0):
    return tcp_scenarios.vegas_thresholds(
        _policy_factory(policy, policy_params),
        hungry=tuple(hungry), modest=tuple(modest), duration=duration,
        trunk_rate=trunk_rate)


def tcp_mixed(policy: str = "selective-discard",
              policy_params: Mapping[str, Any] | None = None,
              duration: float = 30.0, trunk_rate: float = 10.0):
    return tcp_scenarios.mixed_stacks(
        _policy_factory(policy, policy_params),
        duration=duration, trunk_rate=trunk_rate)


def tcp_twoway(policy: str = "selective-discard",
               policy_params: Mapping[str, Any] | None = None,
               flows_per_direction: int = 2, duration: float = 30.0,
               trunk_rate: float = 10.0):
    return tcp_scenarios.two_way(
        _policy_factory(policy, policy_params),
        flows_per_direction=flows_per_direction, duration=duration,
        trunk_rate=trunk_rate)


# ----------------------------------------------------------------------
# registration
# ----------------------------------------------------------------------
# the named configurations: one entry function per table row and tier
for _name in NAMED:
    register_scenario(f"atm.{_name}", globals()[f"atm_{_name}"], kind="atm",
                      deps=("repro.scenarios.generic",),
                      param_deps=atm_param_deps)
register_scenario("fuzz.generic", atm_config, kind="atm",
                  deps=("repro.scenarios.generic",),
                  param_deps=fuzz_param_deps)

_FLUID_DEPS = ("repro.fluid.scenarios",)

for _name in FLUID:
    register_scenario(f"fluid.{_name}", globals()[f"fluid_{_name}"],
                      kind="fluid", deps=_FLUID_DEPS)
register_scenario("fluid.many", fluid_many, kind="fluid",
                  deps=_FLUID_DEPS)
register_scenario("fluid.hybrid_e01", fluid_hybrid_e01, kind="fluid",
                  deps=("repro.fluid.hybrid",))

_TCP_DEPS = ("repro.scenarios.tcp",)

register_scenario("tcp.rtt", tcp_rtt, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.parking", tcp_parking, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.many", tcp_many, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.vegas", tcp_vegas, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.mixed", tcp_mixed, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
register_scenario("tcp.twoway", tcp_twoway, kind="tcp",
                  deps=_TCP_DEPS, param_deps=tcp_param_deps)
