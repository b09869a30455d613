"""HealthReports: oracle gating, per-tier checks, validation, merging."""

import dataclasses
from functools import partial

import pytest

from repro.configs import onoff, staggered
from repro.baselines import EricaAlgorithm
from repro.core import PhantomAlgorithm, PhantomParams
from repro.exec.registry import get_scenario
from repro.exec.suite import suite_specs
from repro.exec.worker import execute_task
from repro.fluid.scenarios import build_fluid
from repro.fluid.scenarios import staggered_start as fluid_staggered
from repro.obs.health import (CHECK_NAMES, HEALTH_SCHEMA, HEALTH_VERSION,
                              ORACLE_CHECKS, SUITE_HEALTH_SCHEMA,
                              build_health, merge_health, oracle_allocation,
                              validate_health, verdict_of)
from repro.obs.judge import gate_reason, not_applicable, settled_mean
from repro.obs.monitor import NOT_APPLICABLE, PASS, VIOLATED, check
from repro.scenarios import drop_tail_policy, rtt_fairness, staggered_start
from repro.sim.probe import StepProbe

E01_SHARE = 150.0 / 2.2   # 2 sessions + 1/5 phantom at 150 Mb/s


@pytest.fixture(scope="module")
def e01_run():
    return staggered_start(PhantomAlgorithm, duration=0.25)


@pytest.fixture(scope="module")
def e01_fluid():
    return fluid_staggered(duration=0.25)


def names_verdicts(report):
    return [(c["name"], c["verdict"]) for c in report["checks"]]


def oracle_verdicts(report):
    return {c["name"]: c["verdict"] for c in report["checks"]
            if c["name"] in ORACLE_CHECKS}


def oracle_reason(report):
    for c in report["checks"]:
        if c["name"] in ORACLE_CHECKS:
            return c["evidence"]["reason"]
    raise AssertionError("no oracle check in report")


# ----------------------------------------------------------------------
# the tentpole acceptance: E01 passes everything, both tiers
# ----------------------------------------------------------------------

def test_e01_packet_health_all_pass(e01_run):
    report = build_health(e01_run, scenario="atm.staggered")
    assert report["schema"] == HEALTH_SCHEMA
    assert report["version"] == HEALTH_VERSION
    assert report["verdict"] == PASS
    assert [c["name"] for c in report["checks"]] == list(CHECK_NAMES)
    assert all(c["verdict"] == PASS for c in report["checks"])
    assert report["oracle"]["s0"] == pytest.approx(E01_SHARE)
    assert report["oracle"]["s1"] == pytest.approx(E01_SHARE)
    assert validate_health(report) == []


def test_e01_fluid_health_all_pass(e01_fluid):
    report = build_health(e01_fluid, scenario="fluid.staggered")
    assert report["verdict"] == PASS
    assert all(c["verdict"] == PASS for c in report["checks"])
    assert report["oracle"]["s0"] == pytest.approx(E01_SHARE)


def test_oracle_allocation_matches_paper_equilibrium(e01_run, e01_fluid):
    assert oracle_allocation(e01_run) == {
        "s0": pytest.approx(E01_SHARE), "s1": pytest.approx(E01_SHARE)}
    assert oracle_allocation(e01_fluid) == {
        "s0": pytest.approx(E01_SHARE), "s1": pytest.approx(E01_SHARE)}


def test_fluid_oracle_is_per_flow():
    # 3 flows/session x 2 sessions water-fill against one phantom
    # share: 150 / 6.2 per flow, not a third of the cohort share
    run = fluid_staggered(duration=0.06, flows_per_session=3)
    alloc = oracle_allocation(run)
    assert alloc["s0"] == pytest.approx(150.0 / 6.2)


# ----------------------------------------------------------------------
# oracle gates: when the equilibrium argument does not apply
# ----------------------------------------------------------------------

def test_run_without_config_is_not_judged(e01_run):
    report = build_health(dataclasses.replace(e01_run, config=None))
    assert set(oracle_verdicts(report).values()) == {NOT_APPLICABLE}
    assert "scenario config" in oracle_reason(report)
    # conservation and queue bounds still judged, so the fold is pass
    assert report["verdict"] == PASS
    assert "oracle" not in report


def test_gate_bursty_scenario(e01_run):
    report = build_health(dataclasses.replace(e01_run, config=onoff()))
    assert "bursty on/off demand" in oracle_reason(report)


def test_gate_baseline_algorithm(e01_run):
    config = {**e01_run.config, "algorithm": "erica"}
    report = build_health(dataclasses.replace(e01_run, config=config))
    assert "'erica'" in oracle_reason(report)


def test_gate_non_rescaling_ablation(e01_run):
    config = {**e01_run.config, "algorithm": "phantom",
              "algorithm_params": {"beta": 0.5}}
    report = build_health(dataclasses.replace(e01_run, config=config))
    assert "departs from the paper's filter" in oracle_reason(report)


def test_rescaling_ablation_keeps_its_oracle(e01_run):
    config = {**e01_run.config, "algorithm": "phantom",
              "algorithm_params": {"utilization_factor": 5.0,
                                   "use_deviation": True}}
    report = build_health(dataclasses.replace(e01_run, config=config))
    assert "oracle" in report
    assert set(oracle_verdicts(report).values()) == {PASS}


@pytest.mark.parametrize("build,gate", [
    (lambda: build_fluid(staggered(
        duration=0.1, algorithm_params={"utilization_factor": 15.0}),
        run=False), "factor"),
    (lambda: build_fluid(staggered(duration=0.02), run=False), "horizon"),
    (lambda: build_fluid(staggered(duration=0.25,
                                   algorithm="phantom-binary"),
                         run=False), "algorithm"),
    (lambda: build_fluid({**staggered(duration=0.25), "rm_loss": 0.2},
                         run=False), "rm_loss"),
    # the public builder's keyword arguments reach the config
    (lambda: fluid_staggered(
        duration=0.1, phantom=PhantomParams(utilization_factor=15.0),
        run=False), "factor"),
    (lambda: fluid_staggered(mode="binary", run=False), "algorithm"),
    (lambda: fluid_staggered(rm_loss=0.2, run=False), "rm_loss"),
], ids=["aggressive-factor", "short-horizon", "binary-mode", "rm-loss",
        "builder-factor", "builder-binary", "builder-rm-loss"])
def test_fluid_runs_read_the_gates_from_their_config(build, gate):
    run = build()
    report = build_health(run)
    assert oracle_reason(report) == gate_reason(run.config)[1]
    assert gate_reason(run.config)[0] == gate


@pytest.mark.parametrize("factory,needle", [
    (EricaAlgorithm, "EricaAlgorithm"),
    (partial(PhantomAlgorithm, PhantomParams(utilization_factor=3.0)),
     "utilization_factor 5.0 -> 3.0"),
], ids=["erica", "phantom-f3"])
def test_packet_builder_runs_are_judged_as_the_law_they_built(factory,
                                                              needle):
    # the public builders take a factory and leave the algorithm out of
    # the config: an ERICA run, or Phantom at another factor, must not
    # be held to the default Phantom oracle
    report = build_health(staggered_start(factory, duration=0.25,
                                          run=False))
    assert {c["evidence"]["gate"] for c in report["checks"]
            if c["name"] in ORACLE_CHECKS} == {"algorithm"}
    assert needle in oracle_reason(report)
    assert "oracle" not in report


def test_gate_fluid_grant_floor():
    # 100 flows/session: per-flow share 0.68 Mb/s sits under the
    # 0.05 x 150 = 7.5 Mb/s grant floor, so the band is unreachable
    run = fluid_staggered(duration=0.1, flows_per_session=100)
    report = build_health(run, scenario="fluid.staggered")
    assert "below the grant floor" in oracle_reason(report)


# ----------------------------------------------------------------------
# regressions of the judge that health and fuzz now share
# ----------------------------------------------------------------------

@pytest.mark.parametrize("task_id", ["E18", "E19-f10", "E25"])
def test_late_joiners_at_suite_smoke_scale_are_not_judged(task_id):
    # at scale 0.2 these runs end before their last session has
    # settled: the judge excuses them instead of reporting violations
    (spec,) = [s for s in suite_specs(scale=0.2,
                                      experiments=[task_id[:3]])
               if s.task_id == task_id]
    report = execute_task({"spec": spec.to_dict()})["health"]
    assert report["verdict"] != VIOLATED
    gates = {c["evidence"]["gate"] for c in report["checks"]
             if c["name"] in ORACLE_CHECKS}
    assert gates in ({"horizon"}, {"ramping"})
    assert "after the last join" in oracle_reason(report) \
        or "still ramping" in oracle_reason(report)


def test_steady_mean_weighs_the_value_held_at_the_window_start():
    # rate probes record changes only: 10 holds from t=0 until the 20
    # at t=0.6, so the mean over [0.5, 1.0] is (10·0.1 + 20·0.4) / 0.5
    probe = StepProbe("acr")
    probe.record(0.0, 10.0)
    probe.record(0.6, 20.0)
    assert settled_mean(probe, 0.5, 1.0) == pytest.approx(18.0)


def test_transient_is_excused_by_its_departure():
    run = get_scenario("atm.transient").fn(duration=0.2, join_at=0.05,
                                           leave_at=0.1)
    report = build_health(run, scenario="atm.transient")
    gates = {c["evidence"]["gate"] for c in report["checks"]
             if c["name"] in ORACLE_CHECKS}
    assert gates == {"stop"}
    assert "'visitor' leaves at 0.1s" in oracle_reason(report)


# ----------------------------------------------------------------------
# the other tiers
# ----------------------------------------------------------------------

def test_tcp_health_judges_counters_not_rates():
    run = rtt_fairness(drop_tail_policy(), duration=5.0)
    report = build_health(run, scenario="tcp.rtt")
    verdicts = dict(names_verdicts(report))
    assert verdicts["conservation"] == PASS
    assert verdicts["queue_bound"] == PASS
    assert set(oracle_verdicts(report).values()) == {NOT_APPLICABLE}
    assert "no settled explicit rate" in oracle_reason(report)
    assert report["verdict"] == PASS


def test_hybrid_health_folds_both_ledgers():
    from repro.fluid.hybrid import hybrid_staggered

    run = hybrid_staggered(duration=0.1)
    report = build_health(run, scenario="hybrid.staggered")
    names = [c["name"] for c in report["checks"]]
    assert names[:4] == ["conservation", "queue_bound",
                         "conservation.fluid", "queue_bound.fluid"]
    verdicts = dict(names_verdicts(report))
    assert verdicts["conservation"] == PASS
    assert verdicts["conservation.fluid"] == PASS
    assert verdicts["queue_bound.fluid"] == PASS
    assert "fluid background" in oracle_reason(report)
    assert validate_health(report) == []


def test_build_health_never_raises():
    class Broken:
        @property
        def net(self):
            raise RuntimeError("boom")

    report = build_health(Broken(), scenario="atm.staggered")
    assert report["verdict"] == NOT_APPLICABLE
    (entry,) = report["checks"]
    assert entry["name"] == "monitor_error"
    assert "RuntimeError: boom" in entry["evidence"]["error"]
    assert validate_health(report) == []


# ----------------------------------------------------------------------
# verdict algebra, validation, suite merge
# ----------------------------------------------------------------------

def test_verdict_of_is_worst_of():
    p = check("a", PASS)
    v = check("b", VIOLATED)
    n = check("c", NOT_APPLICABLE)
    assert verdict_of([p, n]) == PASS
    assert verdict_of([p, v, n]) == VIOLATED
    assert verdict_of([n, n]) == NOT_APPLICABLE


def test_validate_health_catches_malformed_reports():
    assert validate_health("nope") == ["health report is not an object"]
    good = {"schema": HEALTH_SCHEMA, "version": HEALTH_VERSION,
            "scenario": None, "eps": 0.05, "verdict": PASS,
            "checks": [check("conservation", PASS)]}
    assert validate_health(good) == []
    bad = dict(good, schema="other", version=99)
    problems = validate_health(bad)
    assert any("schema" in p for p in problems)
    assert any("version" in p for p in problems)
    assert validate_health(dict(good, checks=[])) == \
        ["checks must be a non-empty list"]
    lying = dict(good, verdict=VIOLATED)
    assert any("does not fold" in p for p in validate_health(lying))
    mangled = dict(good, checks=[{"name": 3, "verdict": "meh",
                                  "first_violation_ts": "soon",
                                  "evidence": None}])
    assert len(validate_health(mangled)) == 4


def test_merge_health_counts_and_names_violators():
    ok = {"verdict": PASS,
          "checks": [check("conservation", PASS),
                     check("convergence", PASS)]}
    sick = {"verdict": VIOLATED,
            "checks": [check("conservation", VIOLATED),
                       check("convergence", NOT_APPLICABLE)]}
    merged = merge_health({"E01": ok, "E07": sick})
    assert merged["schema"] == SUITE_HEALTH_SCHEMA
    assert merged["runs"] == 2
    assert merged["verdict"] == VIOLATED
    assert merged["verdicts"] == {PASS: 1, VIOLATED: 1,
                                  NOT_APPLICABLE: 0}
    assert merged["checks"]["conservation"] == {
        PASS: 1, VIOLATED: 1, NOT_APPLICABLE: 0}
    assert merged["violated"] == {"E07": ["conservation"]}


def test_merge_health_all_pass_is_pass():
    ok = {"verdict": PASS, "checks": [check("conservation", PASS)]}
    merged = merge_health({"E01": ok})
    assert merged["verdict"] == PASS
    assert merged["violated"] == {}
    assert merged["not_applicable"] == {}


def test_merge_health_tallies_not_applicable_by_gate():
    def excused(gate):
        return {"verdict": PASS,
                "checks": [check("conservation", PASS)]
                + not_applicable(gate, f"excused by {gate}")}

    judged = {"verdict": PASS,
              "checks": [check(name, PASS) for name in CHECK_NAMES]}
    merged = merge_health({"E01": judged, "E02": excused("onoff"),
                           "E05": excused("algorithm"),
                           "E14": excused("algorithm"),
                           "E18": excused("horizon")})
    # one count per run, not per oracle check
    assert merged["not_applicable"] == {"algorithm": 2, "horizon": 1,
                                        "onoff": 1}
    assert merged["checks"]["fairness_gap"] == {
        PASS: 1, VIOLATED: 0, NOT_APPLICABLE: 4}
