"""Packet-vs-fluid validation: the committed tolerance contract.

Each test runs one packet/fluid pair at the configuration the
tolerances in :mod:`repro.fluid.validate` were measured at and asserts
every compared metric stays inside its band (the table is committed in
docs/FLUID.md).  Split per scenario so a drift names the configuration
that moved.
"""

from __future__ import annotations

import pytest

from repro.fluid import validate


def _assert_rows_ok(rows):
    problems = validate.failures(rows)
    assert problems == [], "\n".join(problems)


def test_e01_two_sessions_within_tolerance():
    _assert_rows_ok(validate.compare_staggered(n_sessions=2))


def test_e01_five_sessions_within_tolerance():
    _assert_rows_ok(validate.compare_staggered(n_sessions=5,
                                               duration=0.3))


def test_e02_onoff_within_tolerance():
    _assert_rows_ok(validate.compare_onoff())


def test_e05_parking_within_tolerance():
    _assert_rows_ok(validate.compare_parking())


def test_transient_within_tolerance():
    _assert_rows_ok(validate.compare_transient())


def test_rm_loss_within_tolerance():
    """Includes live loss injection on the packet side — the helper
    raises if no cell is actually lost."""
    _assert_rows_ok(validate.compare_rm_loss())


def test_rows_carry_the_committed_tolerances():
    rows = validate.compare_staggered(n_sessions=2)
    for row in rows:
        assert row["tolerance"] == \
            validate.TOLERANCES[row["tolerance_key"]]
    metrics = {row["metric"] for row in rows}
    assert {"rate.s0", "rate.s1", "jain", "utilization",
            "queue.max"} <= metrics


def test_failures_format_names_the_offender():
    row = {"scenario": "x", "metric": "rate.s0", "packet": 1.0,
           "fluid": 2.0, "error": 1.0, "tolerance": 0.1,
           "tolerance_key": "greedy_rate_rel", "ok": False}
    (message,) = validate.failures([row])
    assert "x.rate.s0" in message and "greedy_rate_rel" in message


def test_diverging_session_names_are_an_error():
    """Guards the name-for-name pairing the whole suite rests on."""
    from repro.core import PhantomAlgorithm
    from repro.fluid import scenarios as fluid
    from repro import scenarios as packet

    p = packet.staggered_start(PhantomAlgorithm, n_sessions=2,
                               duration=0.05)
    f = fluid.staggered_start(n_sessions=3, duration=0.05)
    with pytest.raises(ValueError, match="diverge"):
        validate._common_rows("mismatch", p, f, "greedy_rate_rel")
