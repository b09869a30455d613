"""The series reducers against their plain-loop definitions, bit for bit.

``canonical_series``/``probe_digest`` and ``Probe.time_average`` take
C-level shortcuts (a tie-free series is its own canonical form; the
time average accumulates through ``reduce``).  The oracles below are the
straightforward per-sample loops; every result must match them exactly
(``repr`` equality for floats, raw bytes for arrays).
"""

import hashlib
from array import array

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.perf import canonical_series, probe_digest
from repro.sim import Probe, StepProbe


def oracle_canonical_series(probe):
    times = array("d")
    values = array("d")
    for t, v in zip(probe.times, probe.values):
        if times and t == times[-1]:
            values[-1] = v
        else:
            times.append(t)
            values.append(v)
    return times, values


def oracle_probe_digest(probe):
    times, values = oracle_canonical_series(probe)
    digest = hashlib.sha256()
    digest.update(times.tobytes())
    digest.update(values.tobytes())
    return {"n": len(times), "sha256": digest.hexdigest(),
            "last": repr(values[-1]) if values else None}


def oracle_time_average(probe, end=None):
    if not probe.times:
        raise ValueError(f"probe {probe.name!r} is empty")
    horizon = probe.times[-1] if end is None else end
    if horizon < probe.times[-1]:
        return oracle_time_average(probe.window(probe.times[0], horizon),
                                   horizon)
    total = 0.0
    for i, (t, v) in enumerate(probe):
        t_next = probe.times[i + 1] if i + 1 < len(probe) else horizon
        total += v * (t_next - t)
    span = horizon - probe.times[0]
    if span <= 0:
        return probe.values[-1]
    return total / span


FINITE = dict(allow_nan=False, allow_infinity=False)


@st.composite
def series(draw):
    """Non-decreasing times (often tied) and values (often repeated)."""
    pool = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                                   st.floats(-1e3, 1e6, **FINITE)),
                         min_size=1, max_size=6))
    n = draw(st.integers(1, 40))
    times = sorted(draw(st.lists(
        st.one_of(st.sampled_from(pool), st.floats(-1e3, 1e6, **FINITE)),
        min_size=n, max_size=n)))
    values = draw(st.lists(
        st.one_of(st.sampled_from([0.0, 1.0, 7.0]),
                  st.floats(-1e9, 1e9, **FINITE),
                  st.integers(0, 500)),
        min_size=n, max_size=n))
    return times, values


def build(kind, times, values):
    """A probe of ``kind`` holding the series.

    ``list``: a list-backed ``Probe`` (keeps ties and repeats);
    ``step``: a ``StepProbe`` fed through ``record`` (coalesced);
    ``raw``: a ``StepProbe`` whose array columns hold the raw series.
    """
    if kind == "raw":
        probe = StepProbe("raw")
        probe.times = array("d", times)
        probe.values = array("d", values)
        return probe
    probe = Probe("list") if kind == "list" else StepProbe("step")
    for t, v in zip(times, values):
        probe.record(t, v)
    return probe


KINDS = st.sampled_from(["list", "step", "raw"])


def outcome(fn, *args):
    try:
        return "ok", repr(fn(*args))
    except ValueError as exc:
        return "raises", str(exc)


@given(series(), KINDS)
@example(([3.0], [5.0]), "list")
@example(([3.0], [5.0]), "step")
@example(([1.0, 1.0, 1.0], [4.0, 5.0, 6.0]), "raw")
@settings(max_examples=300, deadline=None)
def test_canonical_series_and_digest_match_the_loop(data, kind):
    probe = build(kind, *data)
    times, values = canonical_series(probe)
    ref_times, ref_values = oracle_canonical_series(probe)
    assert isinstance(times, array) and isinstance(values, array)
    assert times.tobytes() == ref_times.tobytes()
    assert values.tobytes() == ref_values.tobytes()
    assert probe_digest(probe) == oracle_probe_digest(probe)


def test_canonical_series_returns_a_copy():
    probe = build("step", [0.0, 1.0], [2.0, 3.0])
    times, values = canonical_series(probe)
    assert times is not probe.times and values is not probe.values
    times.append(9.0)
    assert len(probe.times) == 2


@st.composite
def series_and_end(draw):
    times, values = draw(series())
    end = draw(st.one_of(
        st.none(),
        st.sampled_from([times[0], times[-1], times[len(times) // 2]]),
        st.floats(times[0] - 10.0, times[-1] + 10.0, **FINITE)))
    return (times, values), end


@given(series_and_end(), KINDS)
@example((([3.0], [5.0]), None), "list")
@example((([3.0], [5.0]), 4.0), "step")
@example((([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), 1.5), "list")
@example((([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]), -1.0), "raw")
@settings(max_examples=300, deadline=None)
def test_time_average_matches_the_loop(data, kind):
    (times, values), end = data
    probe = build(kind, times, values)
    assert (outcome(probe.time_average, end)
            == outcome(oracle_time_average, probe, end))
