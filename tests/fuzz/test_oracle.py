"""The Fahmy round-based oracle: hand-worked allocations, input
validation, and cross-validation against the water-filling solver and
the health-report oracle."""

import pytest

from repro.atm.params import AbrParams
from repro.core import PhantomAlgorithm
from repro.core.fairness import max_min_allocation
from repro.fuzz.gen import generate_batch
from repro.configs import topology as topology_of
from repro.obs.health import oracle_allocation
from repro.obs.judge import oracle_for_config
from repro.obs.oracle import fair_share
from repro.scenarios import (on_off, parking_lot, rtt_spread,
                             staggered_start, transient)


# ----------------------------------------------------------------------
# hand-computed allocations
# ----------------------------------------------------------------------

def test_single_link_equal_split():
    shares = fair_share({"L": 150.0}, {"a": ["L"], "b": ["L"]})
    assert shares == pytest.approx({"a": 75.0, "b": 75.0})


def test_single_link_with_phantom_session():
    # the paper's equilibrium: r = f*C / (n*f + 1), here f=5, n=2
    shares = fair_share({"L": 150.0}, {"a": ["L"], "b": ["L"]},
                        phantom_weight=1 / 5)
    assert shares == pytest.approx({"a": 150 / 2.2, "b": 150 / 2.2})


def test_two_link_chain_bottleneck():
    # x,y share the 100 link; z mops up the 150 link's residual
    shares = fair_share({"A": 100.0, "B": 150.0},
                        {"x": ["A", "B"], "y": ["A"], "z": ["B"]})
    assert shares == pytest.approx({"x": 50.0, "y": 50.0, "z": 100.0})


def test_fahmy_three_round_example():
    # three bottleneck levels resolved in successive rounds: L1 fixes
    # a,b at 5; L2's residual then gives c,d 7.5; L3's gives e,f 11.25
    capacities = {"L1": 10.0, "L2": 20.0, "L3": 30.0}
    routes = {"a": ["L1"], "b": ["L1", "L2"], "c": ["L2"],
              "d": ["L2", "L3"], "e": ["L3"], "f": ["L3"]}
    shares = fair_share(capacities, routes)
    assert shares == pytest.approx(
        {"a": 5.0, "b": 5.0, "c": 7.5, "d": 7.5, "e": 11.25,
         "f": 11.25})


def test_weighted_split():
    shares = fair_share({"L": 120.0}, {"x": ["L"], "y": ["L"]},
                        weights={"y": 2.0})
    assert shares == pytest.approx({"x": 40.0, "y": 80.0})


def test_mcr_pinning_reruns_the_solve():
    # z's fair level (33.3) is below its 60 Mb/s guarantee: pin it,
    # re-solve x,y over what is left
    shares = fair_share({"L": 100.0},
                        {"x": ["L"], "y": ["L"], "z": ["L"]},
                        minimums={"z": 60.0})
    assert shares == pytest.approx({"x": 20.0, "y": 20.0, "z": 60.0})


def test_parking_lot_beat_down_is_avoided():
    # max-min gives the long session a full equal share on every hop —
    # the very property the beat-down scenarios measure against
    capacities = {f"L{i}": 150.0 for i in range(3)}
    routes = {"long": ["L0", "L1", "L2"]}
    routes.update({f"cross{i}": [f"L{i}"] for i in range(3)})
    shares = fair_share(capacities, routes)
    assert shares["long"] == pytest.approx(75.0)


# ----------------------------------------------------------------------
# input validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("capacities,routes,kwargs", [
    ({}, {}, {}),
    ({"L": 0.0}, {"a": ["L"]}, {}),
    ({"L": 10.0}, {"a": []}, {}),
    ({"L": 10.0}, {"a": ["M"]}, {}),
    ({"L": 10.0}, {"a": ["L"]}, {"phantom_weight": -0.1}),
    ({"L": 10.0}, {"a": ["L"]}, {"weights": {"b": 1.0}}),
    ({"L": 10.0}, {"a": ["L"]}, {"weights": {"a": 0.0}}),
    ({"L": 10.0}, {"a": ["L"]}, {"minimums": {"b": 1.0}}),
    ({"L": 10.0}, {"a": ["L"]}, {"minimums": {"a": -1.0}}),
])
def test_rejects_malformed_inputs(capacities, routes, kwargs):
    with pytest.raises(ValueError):
        fair_share(capacities, routes, **kwargs)


# ----------------------------------------------------------------------
# cross-validation: two independent solvers, one answer
# ----------------------------------------------------------------------

def test_agrees_with_water_filling_on_generated_topologies():
    checked = 0
    for spec in generate_batch(2, 30):
        config = spec.config
        capacities, routes = topology_of(config)
        weights = {}
        minimums = {}
        for session in config["sessions"]:
            params = AbrParams(**dict(session.get("params") or {}))
            weights[session["vc"]] = params.weight
            if params.mcr > 0:
                minimums[session["vc"]] = params.mcr
        kwargs = dict(phantom_weight=0.2, weights=weights,
                      minimums=minimums or None)
        ours = fair_share(capacities, routes, **kwargs)
        reference = max_min_allocation(capacities, routes, **kwargs)
        for vc in reference:
            assert ours[vc] == pytest.approx(reference[vc], rel=1e-9)
        checked += 1
    assert checked == 30


@pytest.mark.parametrize("builder", [staggered_start, rtt_spread,
                                     parking_lot, transient, on_off])
def test_agrees_with_the_health_oracle_on_curated_builders(builder):
    # the health report's oracle reads the config the run was built
    # from.  Feed the *built* network's exporters into fair_share and
    # both must assign the same shares.
    run = builder(PhantomAlgorithm, run=False)
    net = run.net
    routes = {vc: path for vc, path in net.routes().items() if path}
    weights = {}
    minimums = {}
    pcr = {}
    for vc, session in net.sessions.items():
        params = session.source.params
        weights[vc] = params.weight
        if params.mcr > 0:
            minimums[vc] = params.mcr
        pcr[vc] = params.pcr
    factor = run.bottleneck.algorithm.params.utilization_factor
    ours = fair_share(net.capacities(), routes,
                      phantom_weight=1.0 / factor, weights=weights,
                      minimums=minimums or None)
    reference = oracle_allocation(run)
    assert set(ours) == set(reference)
    for vc in reference:
        assert min(ours[vc], pcr[vc]) \
            == pytest.approx(reference[vc], rel=1e-9)


# ----------------------------------------------------------------------
# config wiring: ports, PCR clamp, backward-RM tax
# ----------------------------------------------------------------------

def test_topology_of_exports_bidirectional_ports():
    capacities, routes = topology_of({
        "link_rate": 100.0,
        "trunks": [{"a": "S1", "b": "S2"},
                   {"a": "S2", "b": "S3", "rate": 150.0}],
        "sessions": [{"vc": "s0", "route": ["S1", "S2", "S3"]},
                     {"vc": "s1", "route": ["S3", "S2"]}],
    })
    assert capacities == {"S1->S2": 100.0, "S2->S1": 100.0,
                          "S2->S3": 150.0, "S3->S2": 150.0}
    assert routes == {"s0": ["S1->S2", "S2->S3"], "s1": ["S3->S2"]}


def test_one_directional_config_sees_no_rm_tax():
    # both sessions flow the same way: their backward RM cells ride
    # idle reverse ports, so the taxed fixpoint equals the plain solve
    config = {
        "link_rate": 150.0,
        "trunks": [{"a": "S1", "b": "S2"}],
        "sessions": [{"vc": "s0", "route": ["S1", "S2"]},
                     {"vc": "s1", "route": ["S1", "S2"]}],
        "algorithm_params": {"utilization_factor": 5.0},
    }
    shares = oracle_for_config(config)
    assert shares == pytest.approx({"s0": 150 / 2.2, "s1": 150 / 2.2})


def test_opposing_sessions_pay_the_backward_rm_tax():
    # each direction's only session would get C/(1+1/f) alone, but the
    # opposing session's backward RM stream (rate/Nrm) shaves its
    # capacity: the symmetric fixpoint is g = (C - g/32) / 1.2
    config = {
        "link_rate": 150.0,
        "trunks": [{"a": "S1", "b": "S2"}],
        "sessions": [{"vc": "fwd", "route": ["S1", "S2"]},
                     {"vc": "rev", "route": ["S2", "S1"]}],
        "algorithm_params": {"utilization_factor": 5.0},
    }
    shares = oracle_for_config(config)
    expected = 150.0 / (1.2 + 1.0 / 32)
    assert shares == pytest.approx({"fwd": expected, "rev": expected})
    assert shares["fwd"] < 150 / 1.2  # strictly below the untaxed share


def test_oracle_for_config_clamps_at_pcr():
    config = {
        "link_rate": 150.0,
        "trunks": [{"a": "S1", "b": "S2", "rate": 600.0}],
        "sessions": [{"vc": "s0", "route": ["S1", "S2"]}],
        "algorithm_params": {"utilization_factor": 5.0},
    }
    # fair level 600/1.2 = 500 Mb/s; the source's PCR caps it at 150
    assert oracle_for_config(config)["s0"] == pytest.approx(150.0)
