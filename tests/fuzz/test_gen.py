"""Seeded generation: determinism, prefix stability, config validity."""

from random import Random

import pytest

from repro.exec.spec import derive_seed
from repro.fuzz.gen import (SCENARIO, generate_batch, generate_config,
                            session_probes)
from repro.core import PhantomAlgorithm
from repro.scenarios.generic import build_atm, validate_config


def test_same_seed_same_batch():
    first = generate_batch(7, 12)
    second = generate_batch(7, 12)
    assert [s.canonical() for s in first] \
        == [s.canonical() for s in second]


def test_different_seeds_differ():
    assert generate_batch(0, 1)[0].canonical() \
        != generate_batch(1, 1)[0].canonical()


def test_budget_only_extends_the_batch():
    # task i draws from its own stream, so a bigger budget shares the
    # smaller batch as an exact prefix — corpus origins stay stable
    short = generate_batch(3, 5)
    long = generate_batch(3, 20)
    assert [s.canonical() for s in short] \
        == [s.canonical() for s in long[:5]]


def test_batch_specs_are_self_describing():
    for spec in generate_batch(11, 8):
        assert spec.scenario == SCENARIO
        assert spec.config is not None
        assert spec.seed == derive_seed(11, spec.task_id)
        assert spec.probes == session_probes(spec.config)


def test_every_generated_config_validates():
    # the builder's own validator is the contract: no generated config
    # may be rejected at build time
    for spec in generate_batch(0, 40):
        assert validate_config(spec.config) == [], spec.task_id


def _dumbbell(**extra):
    config = {"switches": ["S1", "S2", "S3"],
              "trunks": [{"a": "S1", "b": "S2"}, {"a": "S2", "b": "S3"}],
              "sessions": [{"vc": "s0", "route": ["S1", "S2"]}],
              "duration": 0.01}
    config.update(extra)
    return config


#: configs that once passed validation and then failed deep inside the
#: build with a KeyError (or only from add_session), with the message
#: the validator now gives instead
BROKEN_CONFIGS = {
    "trunk to an unknown switch": (
        _dumbbell(trunks=[{"a": "S1", "b": "S9"}]),
        "trunks[0] names unknown switch(es) 'S9'"),
    "cbr hop with no trunk": (
        _dumbbell(cbr=[{"vc": "bg", "route": ["S1", "S3"], "rate": 10.0}]),
        "cbr[0] route hop S1->S3 has no trunk"),
    "onoff without off": (
        _dumbbell(sessions=[{"vc": "s0", "route": ["S1", "S2"],
                             "onoff": {"on": 0.01}}]),
        "sessions[0] onoff needs positive 'on' and 'off' periods"),
    "bottleneck naming no trunk": (
        _dumbbell(bottleneck=["S1", "S3"]),
        "bottleneck ['S1', 'S3'] names no trunk"),
    "duplicate vc": (
        _dumbbell(vbr=[{"vc": "s0", "route": ["S2", "S3"], "peak": 10.0,
                        "mean_on": 0.01, "mean_off": 0.01}]),
        "duplicate vc name(s) s0"),
    "stop before start": (
        _dumbbell(sessions=[{"vc": "s0", "route": ["S1", "S2"],
                             "start": 0.005, "stop": 0.001}]),
        "sessions[0] stop must be a time after its start"),
    "switch names that are not strings": (
        _dumbbell(switches=[1, 2, 3],
                  trunks=[{"a": "1", "b": "2"}, {"a": "2", "b": "3"}],
                  sessions=[{"vc": "s0", "route": ["1", "2"]}]),
        "switch name 1 is not a string"),
    "vc that is not a string": (
        _dumbbell(sessions=[{"vc": 0, "route": ["S1", "S2"]}]),
        "sessions[0] vc must be a string"),
    "sessions that are not a list": (
        _dumbbell(sessions={"vc": "s0", "route": ["S1", "S2"]}),
        "'sessions' must be a list"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_CONFIGS))
def test_broken_configs_are_rejected_before_the_build(case):
    config, message = BROKEN_CONFIGS[case]
    assert any(problem.startswith(message)
               for problem in validate_config(config)), case
    with pytest.raises(ValueError, match="invalid scenario config: "):
        build_atm(config, algorithm_factory=PhantomAlgorithm)


def test_probes_cover_every_session():
    config = generate_batch(5, 1)[0].config
    assert session_probes(config) == tuple(
        f"{s['vc']}.acr" for s in config["sessions"])


def test_batch_rejects_bad_budget():
    with pytest.raises(ValueError):
        generate_batch(0, 0)
    with pytest.raises(ValueError):
        generate_batch(0, -3)


def test_generated_space_covers_the_advertised_axes():
    # one modest batch must exercise families, algorithms, and the
    # optional knobs — a silent generator regression (everything
    # collapsing to one family) should fail loudly here
    configs = [s.config for s in generate_batch(0, 60)]
    assert {c["family"] for c in configs} \
        == {"dumbbell", "chain", "parking", "tree"}
    assert {c["algorithm"] for c in configs} >= {
        "phantom", "phantom-binary", "erica", "eprca", "capc"}
    assert any(c.get("rm_loss") for c in configs)
    assert any(c.get("vbr") for c in configs)
    assert any(c.get("cbr") for c in configs)
    assert any(s.get("onoff") for c in configs for s in c["sessions"])
    assert any("params" in s for c in configs for s in c["sessions"])


def test_binary_draws_always_carry_finite_buffers():
    # the fuzz envelope pins binary feedback to finite port buffers
    # (the binary-queue-ratchet corpus entry records why)
    rng = Random(99)
    seen = 0
    for _ in range(400):
        config = generate_config(rng)
        if config["algorithm"] != "phantom-binary":
            continue
        seen += 1
        assert all(t.get("buffer_cells") for t in config["trunks"])
        knobs = config["algorithm_params"]
        assert knobs["utilization_factor"] <= 5.0
        assert knobs.get("interval", 1e-3) <= 1e-3
    assert seen > 5


def test_generate_config_draws_only_from_the_injected_handle():
    # same handle state, same config — generate_config is a pure
    # function of the Random it is handed
    assert generate_config(Random(4)) == generate_config(Random(4))
