"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture(autouse=True)
def _run_in_tmpdir(tmp_path, monkeypatch):
    """atm/tcp/perf write run manifests into the cwd by default; keep
    test artifacts out of the repo checkout."""
    monkeypatch.chdir(tmp_path)


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "phantom" in out
    assert "selective-discard" in out
    assert "staggered" in out


def test_list_includes_exec_scenario_registry(capsys):
    """`repro list` is the one discoverable source of the registry names
    used by `repro suite/sweep` and the serve API's POST /jobs."""
    from repro.exec.registry import all_scenarios

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "exec scenarios:" in out
    for name in all_scenarios():
        assert name in out


def test_serve_subcommand_is_wired():
    from repro.cli import build_parser
    from repro.serve import cli as serve_cli

    args = build_parser().parse_args(["serve", "--port", "0",
                                      "--no-admission"])
    assert args.fn is serve_cli.run
    assert args.port == 0 and args.no_admission

    from repro.serve.cli import config_from_args

    config = config_from_args(args)
    assert config.port == 0 and not config.admission


def test_atm_staggered_phantom(capsys):
    assert main(["atm", "--scenario", "staggered",
                 "--algorithm", "phantom", "--duration", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "Jain index" in out
    assert "MACR" in out
    assert "utilisation" in out


def test_atm_sessions_flag(capsys):
    assert main(["atm", "--scenario", "staggered", "--sessions", "3",
                 "--duration", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "s2" in out


def test_atm_baseline_algorithm(capsys):
    assert main(["atm", "--scenario", "staggered",
                 "--algorithm", "capc", "--duration", "0.15"]) == 0
    assert "Jain" in capsys.readouterr().out


def test_tcp_selective_discard(capsys):
    assert main(["tcp", "--scenario", "many",
                 "--policy", "selective-discard",
                 "--duration", "5"]) == 0
    out = capsys.readouterr().out
    assert "goodput" in out
    assert "bottleneck q" in out


def test_atm_writes_manifest_by_default(capsys, tmp_path):
    assert main(["atm", "--scenario", "staggered",
                 "--duration", "0.15"]) == 0
    assert "wrote repro_atm.manifest.json" in capsys.readouterr().out
    manifest = json.loads(
        (tmp_path / "repro_atm.manifest.json").read_text())
    assert manifest["schema"] == "repro.obs.manifest"
    assert manifest["command"] == "atm"
    assert manifest["params"]["scenario"] == "staggered"
    assert manifest["metrics"]


def test_atm_manifest_opt_out(capsys, tmp_path):
    assert main(["atm", "--scenario", "staggered",
                 "--duration", "0.15", "--manifest", ""]) == 0
    capsys.readouterr()
    assert not (tmp_path / "repro_atm.manifest.json").exists()


def test_atm_trace_flag_records_jsonl(capsys, tmp_path):
    assert main(["atm", "--scenario", "staggered", "--duration", "0.15",
                 "--trace", "t.jsonl"]) == 0
    assert "wrote t.jsonl" in capsys.readouterr().out
    from repro.obs import validate_trace_jsonl

    assert validate_trace_jsonl(str(tmp_path / "t.jsonl")) == []
    manifest = json.loads(
        (tmp_path / "repro_atm.manifest.json").read_text())
    assert manifest["trace"] == "t.jsonl"


def test_tcp_writes_manifest_by_default(capsys, tmp_path):
    assert main(["tcp", "--scenario", "many", "--policy", "drop-tail",
                 "--duration", "3"]) == 0
    capsys.readouterr()
    manifest = json.loads(
        (tmp_path / "repro_tcp.manifest.json").read_text())
    assert manifest["command"] == "tcp"
    assert manifest["params"]["policy"] == "drop-tail"


def test_perf_writes_companion_manifest(capsys, tmp_path):
    assert main(["perf", "--workload", "e11_tcp", "--scale", "0.15",
                 "--output", "bench.json"]) == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "bench.manifest.json").read_text())
    assert manifest["command"] == "perf"
    assert manifest["params"]["workload"] == ["e11_tcp"]
    assert any(key.startswith("e11_tcp.") for key in manifest["metrics"])


#: A bench report as several commands leave it (docs/PERFORMANCE.md).
BENCH = {
    "python": "3.0.0", "machine": "pdp11",
    "workloads": {"e01_staggered": {"scale": 1.0, "wall_s": 1.0}},
    "suite": {"j1": {"tasks": 41, "wall_s": 8.0}},
    "fuzz": {"j8-cold": {"budget": 200, "wall_s": 60.0}},
    "fluid": {"million": {"flows": 1000100, "wall_s": 0.4}},
    "serve": {"capacity_rps": 15.0},
}


def test_perf_output_merges_into_the_bench_file(capsys, tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(BENCH))
    assert main(["perf", "--workload", "e11_tcp", "--scale", "0.15",
                 "--output", str(bench)]) == 0
    merged = json.loads(bench.read_text())
    for key in ("suite", "fuzz", "fluid", "serve"):
        assert merged[key] == BENCH[key]
    assert merged["workloads"]["e01_staggered"] == \
        BENCH["workloads"]["e01_staggered"]
    assert merged["workloads"]["e11_tcp"]["scale"] == 0.15
    # the environment stamp describes this run
    assert merged["python"] != "3.0.0" and merged["machine"] != "pdp11"


def test_fluid_many_records_its_bench_row(capsys, tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(BENCH))
    assert main(["fluid", "many", "--cohorts", "2",
                 "--flows-per-cohort", "10", "--greedy", "1",
                 "--duration", "0.01", "--record-bench", str(bench)]) == 0
    merged = json.loads(bench.read_text())
    row = merged["fluid"].pop("million")
    assert row["flows"] == 21 and row["sim_seconds"] == 0.01
    assert {"wall_s", "sim_per_wall", "utilization", "cpus"} <= set(row)
    assert merged == {**BENCH, "fluid": {}}


def test_fluid_hybrid_record_bench_needs_twin(tmp_path):
    bench = tmp_path / "bench.json"
    with pytest.raises(SystemExit, match="--twin"):
        main(["fluid", "hybrid", "--record-bench", str(bench)])
    assert not bench.exists()


@pytest.mark.parametrize("argv", [
    ["suite", "--scale", "0.05", "--experiments", "E01", "-j", "1",
     "--no-cache", "--manifest", ""],
    ["fuzz", "run", "--seed", "16", "--budget", "1", "-j", "1",
     "--no-cache"],
    ["fluid", "many", "--cohorts", "2", "--flows-per-cohort", "10",
     "--greedy", "1", "--duration", "0.01"],
], ids=["suite", "fuzz", "fluid-many"])
def test_record_bench_refuses_an_unparseable_file(capsys, tmp_path, argv):
    bench = tmp_path / "bench.json"
    bench.write_text('{"suite": {"j1": ')
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        main([*argv, "--record-bench", str(bench)])
    assert bench.read_text() == '{"suite": {"j1": '


def test_obs_record_and_diff_roundtrip(capsys, tmp_path):
    assert main(["obs", "record", "--workload", "e11_tcp",
                 "--trace", "a.jsonl", "--manifest", "a.json"]) == 0
    assert main(["obs", "record", "--workload", "e11_tcp",
                 "--trace", "b.jsonl", "--manifest", "b.json"]) == 0
    capsys.readouterr()
    assert main(["obs", "validate", "a.jsonl", "--manifest", "a.json"]) == 0
    # identical params and a closed workload: nothing to report
    assert main(["obs", "diff", "a.json", "b.json"]) == 0
    assert main(["obs", "summarize", "a.jsonl"]) == 0
    assert main(["obs", "convert", "a.jsonl"]) == 0
    capsys.readouterr()
    assert (tmp_path / "a.jsonl.chrome.json").exists()


def test_maxmin_classic(capsys):
    assert main(["maxmin", "--link", "l1=100", "--link", "l2=100",
                 "--session", "long=l1,l2", "--session", "s1=l1",
                 "--session", "s2=l2"]) == 0
    out = capsys.readouterr().out
    assert "classic max-min" in out
    assert "50.00" in out


def test_maxmin_phantom_factor(capsys):
    assert main(["maxmin", "--link", "l=150",
                 "--session", "a=l", "--session", "b=l",
                 "--factor", "5"]) == 0
    out = capsys.readouterr().out
    assert "phantom max-min (f=5.0)" in out
    assert "68.18" in out


def test_maxmin_bad_spec():
    with pytest.raises(SystemExit):
        main(["maxmin", "--link", "nonsense", "--session", "a=l"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
