"""The named configurations: one JSON-able input for both tiers."""

import json

import pytest

from repro.configs import FLUID, NAMED, PAPER, topology, validate_config
from repro.core import PhantomAlgorithm
from repro.exec.registry import all_scenarios, get_scenario
from repro.fluid.scenarios import build_fluid
from repro.scenarios.generic import build_atm


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_config_validates(name):
    assert validate_config(NAMED[name]()) == []


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_config_survives_a_json_round_trip(name):
    config = NAMED[name]()
    assert json.loads(json.dumps(config)) == config


@pytest.mark.parametrize("name", sorted(NAMED))
def test_oracle_topology_matches_the_built_packet_network(name):
    config = NAMED[name]()
    net = build_atm(config, algorithm_factory=PhantomAlgorithm,
                    run=False).net
    assert topology(config) == (net.capacities(), net.routes())


@pytest.mark.parametrize("name", FLUID)
def test_fluid_network_carries_the_same_sessions_and_ports(name):
    config = NAMED[name]()
    capacities, routes = topology(config)
    net = build_fluid(config, run=False).net
    assert net.routes() == routes
    # the fluid tier builds only the ports some session crosses
    assert net.capacities().items() <= capacities.items()


def test_table_drives_the_registry():
    names = set(all_scenarios())
    assert {f"atm.{name}" for name in NAMED} <= names
    assert {f"fluid.{name}" for name in FLUID} <= names
    assert set(PAPER) <= set(NAMED) and set(FLUID) <= set(PAPER)


def test_named_configs_keep_their_argument_checks():
    with pytest.raises(ValueError, match="need >= 1 session"):
        NAMED["staggered"](n_sessions=0)
    with pytest.raises(ValueError, match="need >= 2 hops"):
        NAMED["parking"](hops=1)
    with pytest.raises(ValueError, match="join_at < leave_at"):
        NAMED["transient"](join_at=0.3, leave_at=0.2)
    with pytest.raises(TypeError):
        NAMED["background"](session_params={"weight": 2.0})


def test_stop_silences_a_session_on_both_tiers():
    config = NAMED["transient"](duration=0.2, join_at=0.05, leave_at=0.1)
    packet = build_atm(config, algorithm_factory=PhantomAlgorithm)
    fluid = build_fluid(config)
    assert not packet.net.sessions["visitor"].source.active
    visitor = next(c for c in fluid.net.cohorts if c.name == "visitor")
    assert visitor.send_mbps == 0.0


def test_fluid_tier_rejects_what_it_cannot_model():
    with pytest.raises(ValueError, match="ABR sessions only"):
        build_fluid(NAMED["background"]())
    with pytest.raises(ValueError, match="phantom-binary laws only"):
        build_fluid(NAMED["staggered"](algorithm="erica"))
    with pytest.raises(ValueError, match="invalid scenario config"):
        build_fluid({**NAMED["staggered"](), "bottleneck": ["S1", "S9"]})


@pytest.mark.parametrize("name", PAPER)
def test_paper_entries_take_no_background_streams(name):
    cbr = [{"vc": "bg", "route": ["S1", "S2"], "rate": 10.0}]
    with pytest.raises(TypeError):
        get_scenario(f"atm.{name}").fn(cbr=cbr, duration=0.01)


@pytest.mark.parametrize("name", FLUID)
def test_fluid_entries_take_the_law_only_as_phantom_params(name):
    # one spelling per run, so one cache entry per run
    for knob in ({"algorithm": "phantom"}, {"algorithm_params": {}}):
        with pytest.raises(TypeError):
            get_scenario(f"fluid.{name}").fn(duration=0.01, **knob)


def test_seedless_generic_specs_draw_on_off_periods_under_seed_zero():
    # build_atm(seed=None) fixes the periods; fuzz.generic keeps drawing
    # for a spec without a seed, and atm.onoff(seed=None) stays fixed
    config = NAMED["onoff"](duration=0.1)
    drawn, fixed = (build_atm(config, algorithm_factory=PhantomAlgorithm,
                              seed=seed).net.sim.executed_events
                    for seed in (0, None))
    assert fixed != drawn
    assert get_scenario("fuzz.generic").fn(
        config).net.sim.executed_events == drawn
    assert get_scenario("atm.onoff").fn(
        seed=None, duration=0.1).net.sim.executed_events == fixed
