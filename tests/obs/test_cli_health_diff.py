"""`repro obs health` exit codes and `repro obs diff` across every
manifest-producing command (atm / tcp / perf / fluid / suite)."""

import json

import pytest

from repro.cli import main
from repro.obs import (HEALTH_SCHEMA, SUITE_HEALTH_SCHEMA,
                       validate_manifest)
from repro.exec.spec import parse_assignments


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """One manifest of every kind, built by the real CLI commands."""
    root = tmp_path_factory.mktemp("manifests")
    paths = {name: str(root / f"{name}.manifest.json")
             for name in ("atm_a", "atm_b", "tcp", "perf", "fluid",
                          "suite")}
    for label in ("atm_a", "atm_b"):
        assert main(["atm", "--scenario", "staggered",
                     "--duration", "0.15",
                     "--manifest", paths[label]]) == 0
    assert main(["tcp", "--scenario", "many", "--policy", "drop-tail",
                 "--duration", "3", "--manifest", paths["tcp"]]) == 0
    bench = root / "bench.json"
    assert main(["perf", "--workload", "e11_tcp", "--scale", "0.15",
                 "--output", str(bench)]) == 0
    paths["perf"] = str(root / "bench.manifest.json")
    assert main(["fluid", "run", "--scenario", "staggered",
                 "--duration", "0.15",
                 "--manifest", paths["fluid"]]) == 0
    assert main(["suite", "--scale", "0.05", "--experiments", "E01",
                 "-j", "1", "--no-cache", "--health",
                 "--cache-dir", str(root / "cache"),
                 "--manifest", paths["suite"]]) == 0
    return {name: (path, json.loads(open(path).read()))
            for name, (path) in paths.items()}


def test_every_kind_validates(manifests):
    for name, (_path, manifest) in manifests.items():
        assert validate_manifest(manifest) == [], name


def test_run_manifests_carry_health_reports(manifests):
    for name in ("atm_a", "tcp", "fluid"):
        health = manifests[name][1]["health"]
        assert health["schema"] == HEALTH_SCHEMA
        assert health["verdict"] == "pass", name
    # perf measures wall time, not invariants: no health block
    assert "health" not in manifests["perf"][1]


def test_suite_manifest_aggregates_health(manifests):
    manifest = manifests["suite"][1]
    health = manifest["health"]
    assert health["schema"] == SUITE_HEALTH_SCHEMA
    assert health["verdict"] == "pass"
    assert health["runs"] == 1 and health["violated"] == {}
    assert [t["health"] for t in manifest["tasks"]] == ["pass"]


def test_same_config_diffs_clean(manifests, capsys):
    assert main(["obs", "diff", manifests["atm_a"][0],
                 manifests["atm_b"][0]]) == 0
    assert "manifests match" in capsys.readouterr().out


@pytest.mark.parametrize("a,b", [("atm_a", "tcp"), ("tcp", "fluid"),
                                 ("perf", "suite"), ("atm_a", "perf")])
def test_cross_kind_diffs_are_reported(manifests, capsys, a, b):
    assert main(["obs", "diff", manifests[a][0], manifests[b][0]]) == 1
    out = capsys.readouterr().out
    assert "command:" in out


def test_health_regression_shows_up_in_diff(manifests, tmp_path, capsys):
    path, manifest = manifests["atm_a"]
    sick = json.loads(json.dumps(manifest))
    sick["health"]["verdict"] = "violated"
    sick["health"]["checks"][0]["verdict"] = "violated"
    sick_path = tmp_path / "sick.json"
    sick_path.write_text(json.dumps(sick))
    assert main(["obs", "diff", path, str(sick_path)]) == 1
    out = capsys.readouterr().out
    assert "health.verdict: 'pass' != 'violated'" in out


# ----------------------------------------------------------------------
# repro obs health: exit codes and overrides
# ----------------------------------------------------------------------

def test_obs_health_pass_exits_zero(tmp_path, capsys):
    out_path = tmp_path / "health.json"
    assert main(["obs", "health", "--scenario", "atm.staggered",
                 "--set", "duration=0.15",
                 "--output", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict  : pass" in out
    assert "oracle   : s0=68.18 s1=68.18 Mb/s" in out
    report = json.loads(out_path.read_text())
    assert report["schema"] == HEALTH_SCHEMA
    assert report["verdict"] == "pass"


def test_obs_health_violation_exits_one(capsys):
    # an absurd half-cell queue bound forces a queue_bound violation
    assert main(["obs", "health", "--scenario", "atm.staggered",
                 "--set", "duration=0.1",
                 "--queue-bound", "0.5"]) == 1
    out = capsys.readouterr().out
    assert "verdict  : violated" in out
    assert "first violation at t=" in out


def test_obs_health_gated_scenario_still_passes(capsys):
    # on/off has no oracle, but conservation and queues are judged
    assert main(["obs", "health", "--scenario", "atm.onoff",
                 "--set", "duration=0.1"]) == 0
    out = capsys.readouterr().out
    assert "verdict  : pass" in out
    assert "no steady greedy" in out


def test_parse_overrides_nesting_and_json_values():
    params = parse_assignments(["duration=0.2",
                                "algorithm=erica",
                                "algorithm_params.utilization_factor=2",
                                "algorithm_params.use_deviation=true"],
                               "--set")
    assert params == {"duration": 0.2, "algorithm": "erica",
                      "algorithm_params": {"utilization_factor": 2,
                                           "use_deviation": True}}
    with pytest.raises(SystemExit):
        parse_assignments(["not-a-pair"], "--set")
    with pytest.raises(SystemExit):
        parse_assignments(["duration.sub=1", "duration=2"][::-1], "--set")
