"""`repro suite` / `repro sweep` end to end (tiny filtered suites)."""

import json

import pytest

from repro.cli import main

# E01 and E19 at the minimum scale: three short ATM tasks, enough to
# exercise fan-out, reporting, and the cache without a slow test
FAST = ["--scale", "0.05", "--experiments", "E01,E19", "-j", "2"]


def run_suite(tmp_path, *extra, label="a"):
    out = tmp_path / f"report_{label}.json"
    manifest = tmp_path / f"manifest_{label}.json"
    code = main(["suite", *FAST,
                 "--cache-dir", str(tmp_path / "cache"),
                 "--output", str(out),
                 "--manifest", str(manifest), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    mani = json.loads(manifest.read_text()) if manifest.exists() else None
    return code, report, mani


def test_suite_runs_then_serves_from_cache(tmp_path, capsys):
    code, report, mani = run_suite(tmp_path)
    assert code == 0
    assert report["schema"] == "repro.exec.report"
    tasks = {t["task_id"]: t for t in report["tasks"]}
    assert set(tasks) == {"E01", "E19-f2", "E19-f5", "E19-f10",
                          "E19-f20"}
    assert all(t["status"] == "ok" and not t["cached"]
               for t in tasks.values())
    assert {t["task_id"] for t in mani["tasks"]} == set(tasks)
    first_out = capsys.readouterr().out
    assert "from cache" in first_out

    # a first pass cannot satisfy --assert-cached...
    code2, _, _ = run_suite(tmp_path / "cold", "--assert-cached",
                            label="cold")
    assert code2 == 1
    assert "--assert-cached" in capsys.readouterr().out

    # ...but the warm second pass must be fully cache-served
    code3, report3, _ = run_suite(tmp_path, "--assert-cached", label="b")
    assert code3 == 0
    tasks3 = {t["task_id"]: t for t in report3["tasks"]}
    assert all(t["cached"] for t in tasks3.values())
    # and bit-identical to the first run's results
    for task_id, t in tasks.items():
        assert tasks3[task_id]["fingerprint"] == t["fingerprint"]


def test_suite_no_cache_resimulates(tmp_path):
    code, report, _ = run_suite(tmp_path, "--no-cache")
    assert code == 0
    code2, report2, _ = run_suite(tmp_path, "--no-cache", label="b")
    assert code2 == 0
    assert all(not t["cached"] for t in report2["tasks"])
    assert not (tmp_path / "cache").exists()


def test_suite_record_bench_merges(tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"benchmarks": []}))
    code, _, _ = run_suite(tmp_path, "--record-bench", str(bench))
    assert code == 0
    merged = json.loads(bench.read_text())
    assert merged["benchmarks"] == []  # existing content preserved
    entry = merged["suite"]["j2"]
    assert entry["tasks"] == 5 and entry["scale"] == 0.05


def test_suite_health_aggregates_and_prints_table(tmp_path, capsys):
    code, _report, mani = run_suite(tmp_path, "--health")
    assert code == 0
    out = capsys.readouterr().out
    assert "health: pass across 5 run(s)" in out
    assert "conservation" in out and "queue_bound" in out
    health = mani["health"]
    assert health["schema"] == "repro.obs.health.suite"
    assert health["verdicts"]["pass"] == 5
    assert health["verdicts"]["violated"] == 0
    assert health["checks"]["conservation"]["pass"] == 5
    assert all(t["health"] == "pass" for t in mani["tasks"])


def test_suite_rejects_unknown_experiment(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["suite", "--experiments", "E99",
              "--cache-dir", str(tmp_path)])


def test_sweep_cli(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = main(["sweep", "--scenario", "atm.staggered",
                 "--param", "algorithm_params.utilization_factor="
                            "0.9,0.95",
                 "--set", "duration=0.05", "--set", "n_sessions=2",
                 # a dotted --set key descends like a dotted --param axis
                 "--set", "algorithm_params.interval=0.002",
                 "--probe", "s0.acr",
                 "-j", "1", "--cache-dir", str(tmp_path / "cache"),
                 "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [t["params"]["algorithm_params"] for t in report["tasks"]] == [
        {"interval": 0.002, "utilization_factor": factor}
        for factor in (0.9, 0.95)]
    printed = capsys.readouterr().out
    assert "utilization" in printed and "jain" in printed


def test_sweep_rejects_malformed_axes(tmp_path):
    with pytest.raises(SystemExit):
        main(["sweep", "--scenario", "atm.staggered",
              "--param", "not-a-pair",
              "--cache-dir", str(tmp_path)])
    with pytest.raises(SystemExit):
        main(["sweep", "--scenario", "atm.staggered",
              "--cache-dir", str(tmp_path)])  # no axes at all
