"""Property harness: the equilibrium judge's gate table, settled-rate
means, classification of synthetic results, batch judging."""

import pytest

from repro.exec.pool import ExecResult
from repro.exec.spec import TaskSpec
from repro.fuzz.harness import (CLASS_CRASH, CLASS_PASS, CLASS_TIMEOUT,
                                CLASS_VIOLATED, classify_result,
                                judge_batch)
from repro.obs.judge import gate_reason, judge, settled_mean
from repro.obs.monitor import PASS, VIOLATED, check
from repro.sim.probe import Probe


def eligible_config(**overrides):
    """A config squarely inside the oracle-eligible region."""
    config = {
        "family": "dumbbell",
        "switches": ["S1", "S2"],
        "trunks": [{"a": "S1", "b": "S2"}],
        "link_rate": 150.0,
        "algorithm": "phantom",
        "algorithm_params": {"utilization_factor": 5.0},
        "duration": 0.25,
        "sessions": [{"vc": "s0", "route": ["S1", "S2"]},
                     {"vc": "s1", "route": ["S1", "S2"]}],
    }
    config.update(overrides)
    return config


def _session(vc, **fields):
    return {"vc": vc, "route": ["S1", "S2"], **fields}


# ----------------------------------------------------------------------
# the gate list (repro.obs.judge), shared by health and fuzz
# ----------------------------------------------------------------------

def test_eligible_config_has_no_reason():
    assert gate_reason(eligible_config()) is None


# The one gate table: every rule the judge applies before it looks at a
# rate, as a config outside the equilibrium argument and a word its
# reason must name.  Health reads the same rules off the config a run
# was built from, on either tier.
@pytest.mark.parametrize("overrides,needle", [
    ({"algorithm": "erica"}, "erica"),
    ({"algorithm_params": {"alpha_dec": 0.5}}, "alpha_dec"),
    ({"algorithm_params": {"utilization_factor": 20.0}}, "20"),
    ({"vbr": [{"vc": "v0"}]}, "cross-traffic"),
    ({"cbr": [{"vc": "c0"}]}, "cross-traffic"),
    ({"rm_loss": 0.01}, "RM-loss"),
    ({"sessions": [_session("s0", onoff={"on": 0.01, "off": 0.01})]},
     "on/off"),
    ({"algorithm": "phantom-binary"}, "phantom-binary"),
    ({"duration": 0.05, "algorithm_params":
      {"utilization_factor": 5.0, "interval": 2e-3}}, "control interval"),
    ({"link_rate": 100.0,
      "trunks": [{"a": "S1", "b": "S2", "rate": 150.0}]},
     "access-limited"),
    ({"algorithm_params": {"use_deviation": False}}, "use_deviation"),
    ({"sessions": [_session("s0"), _session("s1", start=0.05, stop=0.2)]},
     "leaves at 0.2s"),
    ({"sessions": [_session("s0"), _session("s1", start=0.21)]},
     "after the last join"),
])
def test_gate_reasons(overrides, needle):
    found = gate_reason(eligible_config(**overrides))
    assert found is not None and needle in found[1]


def test_paper_filter_knobs_pass_the_gates():
    # the rescaling knobs, and any knob spelled out at its default, keep
    # the oracle; a session leaving only at the horizon never left
    config = eligible_config(
        algorithm_params={"utilization_factor": 10.0, "interval": 5e-4,
                          "use_deviation": True, "alpha_inc": 1 / 16,
                          "alpha_dec": 1 / 4},
        sessions=[_session("s0"), _session("s1", stop=0.25)])
    assert gate_reason(config) is None


def test_slow_feedback_is_not_gated():
    # a 5 ms access delay is judged: a loop too slow to settle fails
    # the drift test instead
    config = eligible_config(
        sessions=[_session("s0", access_delay=0.005), _session("s1")])
    assert gate_reason(config) is None


def test_gate_on_shares_below_the_grant_floor():
    # 40 sessions at f=5 share 150/(40 + 0.2) ≈ 3.7 Mb/s, under the 5%
    # grant floor of 7.5 — the law cannot express the oracle's answer
    crowd = [_session(f"s{i}") for i in range(40)]
    checks, oracle = judge(eligible_config(sessions=crowd), {})
    assert oracle is None
    assert {c["evidence"]["gate"] for c in checks} == {"floor"}
    assert "grant floor" in checks[0]["evidence"]["reason"]


# ----------------------------------------------------------------------
# settled windows
# ----------------------------------------------------------------------

def _probe(times, values):
    probe = Probe("acr")
    for t, v in zip(times, values):
        probe.record(t, v)
    return probe


def test_window_mean_weighs_holding_times():
    # value 10 holds over [0, 0.5), 20 over [0.5, 1.0): mean 15 across
    # the whole window, 20 across the late half
    probe = _probe([0.0, 0.5], [10.0, 20.0])
    assert settled_mean(probe, 0.0, 1.0) == pytest.approx(15.0)
    assert settled_mean(probe, 0.5, 1.0) == pytest.approx(20.0)
    assert settled_mean(probe, 0.75, 1.0) == pytest.approx(20.0)


def test_window_mean_empty_series():
    assert settled_mean(Probe(), 0.0, 1.0) == 0.0


# ----------------------------------------------------------------------
# classification: the judge's report, read back by the harness
# ----------------------------------------------------------------------

def _spec(config=None):
    return TaskSpec(task_id="t", scenario="fuzz.generic", seed=1,
                    config=config)


def _flat(config, level):
    duration = config["duration"]
    return {s["vc"]: _probe([0.0, duration], [level, level])
            for s in config["sessions"]}


def _result(config, checks=(), rates=None, status="ok", error=None):
    """A result whose HealthReport the judge built from ``rates``."""
    payload = None
    if status == "ok":
        judged, oracle = judge(config, rates or {})
        report = {"checks": list(checks) + judged}
        if oracle is not None:
            report["oracle"] = oracle
        payload = {"health": report}
    return ExecResult(spec=_spec(config), status=status,
                      payload=payload, error=error)


def test_timeout_and_crash_short_circuit():
    config = eligible_config()
    timed = classify_result(_result(config, status="timeout",
                                    error="over budget"))
    assert timed["classification"] == CLASS_TIMEOUT
    crashed = classify_result(_result(config, status="error",
                                      error="builder rejected"))
    assert crashed["classification"] == CLASS_CRASH
    assert crashed["detail"] == "builder rejected"


def test_violated_health_check_dominates():
    config = eligible_config()
    judgment = classify_result(_result(
        config, checks=[check("conservation", VIOLATED)],
        rates=_flat(config, 150 / 2.2)))
    assert judgment["classification"] == CLASS_VIOLATED
    assert judgment["checks"] == ["conservation"]


def test_settled_on_oracle_passes():
    config = eligible_config()
    judgment = classify_result(_result(
        config, checks=[check("conservation", PASS)],
        rates=_flat(config, 150 / 2.2)))
    assert judgment["classification"] == CLASS_PASS
    assert judgment["oracle"]["s0"] == pytest.approx(150 / 2.2)
    assert "oracle_skipped" not in judgment


def test_settled_at_the_wrong_value_is_a_violation():
    # flat (zero drift) but 30% away from the fair share: the run is
    # settled, just unfair — exactly what the ε-band must catch.  The
    # instantaneous convergence check fails too, but only the settled
    # mean decides the classification
    config = eligible_config()
    judgment = classify_result(_result(
        config, rates=_flat(config, 0.7 * 150 / 2.2)))
    assert judgment["classification"] == CLASS_VIOLATED
    assert judgment["checks"] == ["oracle_gap"]


def test_still_ramping_skips_the_band():
    # the rate doubles between the two comparison windows → not settled
    config = eligible_config(duration=1.0)
    rates = {s["vc"]: _probe([0.0, 0.75], [40.0, 80.0])
             for s in config["sessions"]}
    judgment = classify_result(_result(config, rates=rates))
    assert judgment["classification"] == CLASS_PASS
    assert "ramping" in judgment["oracle_skipped"]


def test_missing_probe_series_skips_the_band():
    config = eligible_config()
    judgment = classify_result(_result(config, rates={}))
    assert judgment["classification"] == CLASS_PASS
    assert "no rate series" in judgment["oracle_skipped"]


@pytest.mark.parametrize("report", [
    {"checks": [check("monitor_error", "not-applicable",
                      evidence={"error": "KeyError: 's9'"})]},
    {},
], ids=["monitor-error", "no-checks"])
def test_failed_health_pass_is_a_violation(report):
    # a judge that crashed judged nothing: never a silent pass
    result = ExecResult(spec=_spec(eligible_config()), status="ok",
                        payload={"health": report})
    judgment = classify_result(result)
    assert judgment["classification"] == CLASS_VIOLATED
    assert judgment["checks"] == ["monitor_error"]
    assert judgment["detail"]


def test_ineligible_config_reports_why():
    config = eligible_config(algorithm="erica")
    judgment = classify_result(_result(config))
    assert judgment["classification"] == CLASS_PASS
    assert "erica" in judgment["oracle_skipped"]


def test_judge_batch_counts_and_failing_index():
    config = eligible_config()
    results = [
        _result(config, rates=_flat(config, 150 / 2.2)),
        _result(config, checks=[check("queue_bound", VIOLATED)],
                rates=_flat(config, 150 / 2.2)),
        _result(config, status="error", error="boom"),
    ]
    summary = judge_batch(results)
    assert summary["counts"] == {"pass": 1, "violated": 1, "crash": 1,
                                 "timeout": 0}
    assert set(summary["failing"]) == {"t"}
    assert summary["oracle_checked"] == 2

