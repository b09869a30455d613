"""``repro.perf.record_bench``: the one writer of ``BENCH_perf.json``."""

import json

import pytest

from repro import perf


def test_missing_file_starts_a_fresh_report(tmp_path):
    path = tmp_path / "bench.json"
    perf.record_bench(str(path), "suite", {"j1": {"wall_s": 1.0}})
    assert json.loads(path.read_text()) == {"suite": {"j1": {"wall_s": 1.0}}}
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


def test_merge_keeps_other_keys_and_rows(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "python": "3.11.7",
        "fuzz": {"j8-cold": {"wall_s": 9.0}},
        "suite": {"j1": {"wall_s": 1.0}, "j2": {"wall_s": 2.0}},
    }))
    perf.record_bench(str(path), "suite", {"j2": {"wall_s": 3.0}},
                      stamp={"machine": "x86_64"})
    assert json.loads(path.read_text()) == {
        "python": "3.11.7",
        "machine": "x86_64",
        "fuzz": {"j8-cold": {"wall_s": 9.0}},
        "suite": {"j1": {"wall_s": 1.0}, "j2": {"wall_s": 3.0}},
    }


@pytest.mark.parametrize("content", [
    "{not json",                        # unparseable
    "[]",                               # not an object
    json.dumps({"suite": [1, 2]}),      # the key holds no rows
])
def test_refuses_a_file_it_cannot_merge_into(tmp_path, content):
    path = tmp_path / "bench.json"
    path.write_text(content)
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        perf.record_bench(str(path), "suite", {"j1": {"wall_s": 1.0}})
    assert path.read_text() == content
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]
