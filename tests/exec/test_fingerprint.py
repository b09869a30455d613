"""Fingerprints: import-closure walking and invalidation granularity."""

from pathlib import Path

import pytest

from repro.exec import SourceIndex, TaskSpec, task_fingerprint

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


# ----------------------------------------------------------------------
# SourceIndex on a synthetic package tree
# ----------------------------------------------------------------------
@pytest.fixture
def tree(tmp_path):
    root = tmp_path / "repro"
    (root / "sub").mkdir(parents=True)
    (root / "__init__.py").write_text("")
    (root / "a.py").write_text(
        "import repro.b\n"
        "from repro.sub import c\n")
    (root / "b.py").write_text("import json\n")
    (root / "sub" / "__init__.py").write_text("")
    (root / "sub" / "c.py").write_text(
        "from . import d\n"
        "from ..b import something\n")
    (root / "sub" / "d.py").write_text("")
    return root


def test_module_resolution(tree):
    index = SourceIndex(root=tree)
    assert index.module_path("repro.a") == tree / "a.py"
    assert index.module_path("repro.sub") == tree / "sub" / "__init__.py"
    assert index.module_path("repro.sub.c") == tree / "sub" / "c.py"
    assert index.module_path("json") is None
    assert index.module_path("repro.missing") is None
    assert index.is_package("repro.sub")
    assert not index.is_package("repro.a")


def test_imports_resolve_absolute_from_and_relative_forms(tree):
    index = SourceIndex(root=tree)
    # `from repro.sub import c` contributes both the package and c
    assert index.imports_of("repro.a") == ("repro.b", "repro.sub",
                                           "repro.sub.c")
    assert index.imports_of("repro.b") == ()  # stdlib not ours
    # `from . import d` and `from ..b import name`
    assert index.imports_of("repro.sub.c") == ("repro.b", "repro.sub",
                                               "repro.sub.d")


def test_closure_is_transitive_and_digested(tree):
    index = SourceIndex(root=tree)
    closure = set(index.closure(["repro.a"]))
    assert closure == {"repro.a", "repro.b", "repro.sub",
                       "repro.sub.c", "repro.sub.d"}
    assert set(index.closure(["repro.b"])) == {"repro.b"}
    with pytest.raises(KeyError, match="repro.nope"):
        index.closure(["repro.nope"])


def test_closure_digests_change_with_the_file(tree):
    before = SourceIndex(root=tree).closure(["repro.a"])
    with (tree / "sub" / "d.py").open("a") as fh:
        fh.write("# edit\n")
    after = SourceIndex(root=tree).closure(["repro.a"])
    assert before["repro.sub.d"] != after["repro.sub.d"]
    assert before["repro.a"] == after["repro.a"]


def test_all_modules_enumerates_the_tree_sorted(tree):
    index = SourceIndex(root=tree)
    assert index.all_modules() == (
        "repro", "repro.a", "repro.b", "repro.sub", "repro.sub.c",
        "repro.sub.d")
    (tree / "sub" / "__pycache__").mkdir()
    (tree / "sub" / "__pycache__" / "junk.py").write_text("")
    assert "repro.sub.__pycache__.junk" not in SourceIndex(
        root=tree).all_modules()


def test_module_name_of_inverts_module_path(tree):
    index = SourceIndex(root=tree)
    for modname in index.all_modules():
        assert index.module_name_of(index.module_path(modname)) == modname
    assert index.module_name_of(tree / ".." / "elsewhere.py") is None
    assert index.module_name_of(tree / "a.txt") is None


def test_dependents_closure_is_the_reverse_of_imports(tree):
    index = SourceIndex(root=tree)
    # a imports b and sub.c; c imports d and b — so editing d
    # invalidates c and a but never b
    assert set(index.dependents_closure(["repro.sub.d"])) >= {
        "repro.sub.d", "repro.sub.c", "repro.a"}
    assert "repro.b" not in index.dependents_closure(["repro.sub.d"])
    assert set(index.dependents_closure(["repro.b"])) == {
        "repro.a", "repro.b", "repro.sub.c"}


def test_resolve_import_from_handles_relative_levels(tree):
    import ast

    index = SourceIndex(root=tree)
    node = ast.parse("from . import d").body[0]
    assert index.resolve_import_from("repro.sub.c", node) == "repro.sub"
    node = ast.parse("from ..b import something").body[0]
    assert index.resolve_import_from("repro.sub.c", node) == "repro.b"
    node = ast.parse("from repro.sub import c").body[0]
    assert index.resolve_import_from("repro.a", node) == "repro.sub"


# ----------------------------------------------------------------------
# task fingerprints over (a copy of) the real tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def copied_tree(tmp_path_factory):
    import shutil

    dest = tmp_path_factory.mktemp("fp") / "repro"
    shutil.copytree(REPO_SRC, dest)
    return dest


ATM = TaskSpec(task_id="a", scenario="atm.staggered",
               params={"duration": 0.1})
TCP = TaskSpec(task_id="t", scenario="tcp.rtt", params={"duration": 1.0})
CAPC = TaskSpec(task_id="c", scenario="atm.staggered",
                params={"algorithm": "capc", "duration": 0.1})
FLUID = TaskSpec(task_id="f", scenario="fluid.staggered",
                 params={"duration": 0.1})
HYBRID = TaskSpec(task_id="h", scenario="fluid.hybrid_e01",
                  params={"duration": 0.1})


def _fingerprints(root):
    index = SourceIndex(root=root)
    return {name: task_fingerprint(spec, index=index)
            for name, spec in (("atm", ATM), ("tcp", TCP),
                               ("capc", CAPC), ("fluid", FLUID),
                               ("hybrid", HYBRID))}


def test_fingerprint_is_deterministic(copied_tree):
    assert _fingerprints(copied_tree) == _fingerprints(copied_tree)


def test_fingerprint_tracks_spec_changes(copied_tree):
    index = SourceIndex(root=copied_tree)
    base = task_fingerprint(ATM, index=index)
    longer = TaskSpec(task_id="a", scenario="atm.staggered",
                      params={"duration": 0.2})
    seeded = TaskSpec(task_id="a", scenario="atm.staggered",
                      params={"duration": 0.1}, seed=3)
    assert task_fingerprint(longer, index=index) != base
    assert task_fingerprint(seeded, index=index) != base
    # the label is not part of the address
    renamed = TaskSpec(task_id="zz", scenario="atm.staggered",
                       params={"duration": 0.1})
    assert task_fingerprint(renamed, index=index) == base


def test_scenario_edit_invalidates_only_that_kind(copied_tree):
    before = _fingerprints(copied_tree)
    with (copied_tree / "scenarios" / "generic.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert after["atm"] != before["atm"]
    assert after["capc"] != before["capc"]  # capc task builds there too
    assert after["tcp"] == before["tcp"]    # TCP entries untouched
    assert after["fluid"] == before["fluid"]

    with (copied_tree / "scenarios" / "tcp.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    again = _fingerprints(copied_tree)
    assert again["tcp"] != after["tcp"]
    assert again["atm"] == after["atm"]
    # the fluid builders import the config table module by its full
    # name, so the scenarios package (and its TCP stack) stays out
    assert again["fluid"] == after["fluid"]


def test_algorithm_edit_invalidates_only_tasks_that_chose_it(copied_tree):
    before = _fingerprints(copied_tree)
    with (copied_tree / "baselines" / "capc.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert after["capc"] != before["capc"]
    assert after["atm"] == before["atm"]    # phantom task unaffected
    assert after["tcp"] == before["tcp"]


def test_fluid_stepper_edit_never_touches_packet_tasks(copied_tree):
    before = _fingerprints(copied_tree)
    with (copied_tree / "fluid" / "stepper.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert after["fluid"] != before["fluid"]
    assert after["hybrid"] != before["hybrid"]  # hybrid embeds the stepper
    assert after["atm"] == before["atm"]
    assert after["capc"] == before["capc"]
    assert after["tcp"] == before["tcp"]


def test_hybrid_edit_invalidates_only_hybrid(copied_tree):
    before = _fingerprints(copied_tree)
    with (copied_tree / "fluid" / "hybrid.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert after["hybrid"] != before["hybrid"]
    assert after["fluid"] == before["fluid"]   # pure-fluid tasks spared
    assert after["atm"] == before["atm"]


def test_engine_edit_invalidates_everything(copied_tree):
    before = _fingerprints(copied_tree)
    with (copied_tree / "sim" / "engine.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert all(after[name] != before[name] for name in before)


# ----------------------------------------------------------------------
# inline-config (fuzz) specs
# ----------------------------------------------------------------------
def _fuzz_spec(algorithm="phantom", duration=0.1, task_id="fz"):
    return TaskSpec(
        task_id=task_id, scenario="fuzz.generic", seed=11,
        config={"switches": ["S1", "S2"],
                "trunks": [{"a": "S1", "b": "S2"}],
                "sessions": [{"vc": "s0", "route": ["S1", "S2"]}],
                "algorithm": algorithm, "duration": duration})


def test_config_feeds_the_fingerprint(copied_tree):
    index = SourceIndex(root=copied_tree)
    base = task_fingerprint(_fuzz_spec(), index=index)
    assert task_fingerprint(_fuzz_spec(), index=index) == base
    assert task_fingerprint(_fuzz_spec(duration=0.2),
                            index=index) != base
    # the label stays outside the address: cache hits across batches
    assert task_fingerprint(_fuzz_spec(task_id="other"),
                            index=index) == base


def test_config_algorithm_choice_scopes_the_closure(copied_tree):
    # param_deps reads the algorithm out of the inline config, so a
    # baseline edit invalidates only configs that chose that baseline
    index = SourceIndex(root=copied_tree)
    before_capc = task_fingerprint(_fuzz_spec("capc"), index=index)
    before_phantom = task_fingerprint(_fuzz_spec(), index=index)
    with (copied_tree / "baselines" / "capc.py").open("a") as fh:
        fh.write("\n# touched by the fuzz invalidation test\n")
    index = SourceIndex(root=copied_tree)
    assert task_fingerprint(_fuzz_spec("capc"),
                            index=index) != before_capc
    assert task_fingerprint(_fuzz_spec(),
                            index=index) == before_phantom


def test_config_table_edit_invalidates_both_tiers_not_tcp(copied_tree):
    # named ATM tasks, fluid tasks and generated configs all build from
    # one scenario description, so the config module is in every
    # closure except the TCP one
    before = _fingerprints(copied_tree)
    before_fuzz = task_fingerprint(_fuzz_spec(),
                                   index=SourceIndex(root=copied_tree))
    with (copied_tree / "configs.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert task_fingerprint(_fuzz_spec(),
                            index=SourceIndex(root=copied_tree)) \
        != before_fuzz
    for name in ("atm", "capc", "fluid", "hybrid"):
        assert after[name] != before[name], name
    assert after["tcp"] == before["tcp"]


def test_judge_edit_invalidates_every_judged_task(copied_tree):
    # the equilibrium judge's verdicts are cached with the result and a
    # fuzz campaign classifies from them, so an edit to the judge must
    # retire every ATM and fluid entry (TCP runs are never judged)
    before = _fingerprints(copied_tree)
    before_fuzz = task_fingerprint(_fuzz_spec(),
                                   index=SourceIndex(root=copied_tree))
    with (copied_tree / "obs" / "judge.py").open("a") as fh:
        fh.write("\n# touched by the invalidation test\n")
    after = _fingerprints(copied_tree)
    assert task_fingerprint(_fuzz_spec(),
                            index=SourceIndex(root=copied_tree)) \
        != before_fuzz
    for name in ("atm", "capc", "fluid", "hybrid"):
        assert after[name] != before[name], name
    assert after["tcp"] == before["tcp"]
