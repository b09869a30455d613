"""Run health reports: max-min verdicts for every execution tier.

:func:`build_health` folds the invariant monitors of
:mod:`repro.obs.monitor` over a completed run handle — packet ATM,
packet TCP, fluid, or hybrid — into one schema'd **HealthReport**::

    {"schema": "repro.obs.health", "version": 1,
     "scenario": "atm.staggered", "eps": 0.05, "verdict": "pass",
     "oracle": {"s0": 68.18..., "s1": 68.18...},
     "checks": [{"name": "conservation", "verdict": "pass",
                 "first_violation_ts": None, "evidence": {...}}, ...]}

Six canonical checks: ``conservation`` and ``queue_bound`` apply to
every run; ``convergence``, ``oscillation``, ``fairness_gap`` and
``oracle_consistency`` are decided by the equilibrium judge
(:mod:`repro.obs.judge`) against the **oracle** — the phantom-adjusted
max-min allocation — and report ``not-applicable`` (with the gate and
reason in evidence) for runs the paper's equilibrium argument does not
cover.  The judge reads its gates from the scenario config the run was
built from; TCP and hybrid runs are never judged.

The report rides inside run manifests (``repro.obs.manifest``), is
reduced per task by the exec worker and aggregated by ``repro suite
--health`` (:func:`merge_health`), and is exported as Prometheus
metrics by ``repro.serve``.  ``repro obs health`` builds one on demand.

Everything here is *read-only over finished state*: building a report
schedules nothing, mutates nothing, and never raises — an internal
failure degrades to a ``monitor_error`` check so a health pass can
never take a worker task down with it.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Any, Mapping

from repro.core.fairness import max_min_allocation
from repro.core.params import PhantomParams
from repro.core.phantom import PhantomAlgorithm
from repro.obs.judge import (ORACLE_CHECKS, gate_reason, judge,
                             not_applicable, oracle_for_config)
from repro.obs.monitor import (DEFAULT_EPS, NOT_APPLICABLE, PASS, VIOLATED,
                               QueueWatch, check, conservation_check,
                               queue_bound_check)

#: Schema identifier stamped into every report.
HEALTH_SCHEMA = "repro.obs.health"
#: Bump when the report layout changes.
HEALTH_VERSION = 1
#: Schema of the suite-level aggregation (:func:`merge_health`).
SUITE_HEALTH_SCHEMA = "repro.obs.health.suite"

#: The canonical check names, in report order.
CHECK_NAMES = ("conservation", "queue_bound") + ORACLE_CHECKS


def verdict_of(checks: list[dict[str, Any]]) -> str:
    """Worst-of fold: any violation taints the run; a run whose every
    check was inapplicable is itself not-applicable."""
    verdicts = {c["verdict"] for c in checks}
    if VIOLATED in verdicts:
        return VIOLATED
    if PASS in verdicts:
        return PASS
    return NOT_APPLICABLE


# ----------------------------------------------------------------------
# oracle wiring
# ----------------------------------------------------------------------
def oracle_allocation(run) -> dict[str, float]:
    """The allocation the judge holds a run's rates to.

    A packet run's is :func:`repro.obs.judge.oracle_for_config` over
    the config it was built from.  A fluid run's is *per flow*, read
    off the built network: a cohort of ``count`` flows enters the
    water-fill with ``count × weight`` shares and its allocation is
    divided back by ``count``, clamped at the cohort's PCR.
    """
    net = run.net
    if not hasattr(net, "steps"):      # AtmRun
        return oracle_for_config(run.config)
    weights = {}
    counts = {}
    pcr = {}
    for cohort in net.cohorts:
        weights[cohort.name] = cohort.count * cohort.params.weight
        counts[cohort.name] = cohort.count
        pcr[cohort.name] = cohort.params.pcr
    allocation = max_min_allocation(
        net.capacities(), net.routes(),
        phantom_weight=1.0 / net.phantom.utilization_factor,
        weights=weights)
    return {name: min(rate / counts[name], pcr[name])
            for name, rate in allocation.items()}


# ----------------------------------------------------------------------
# per-tier check assembly
# ----------------------------------------------------------------------
def _judged(run, probes, eps, queue_bound, watch):
    checks = [conservation_check(run),
              queue_bound_check(run, queue_bound, watch)]
    judged, oracle = judge(run.config, probes, eps,
                           oracle=lambda _config: oracle_allocation(run))
    return checks + judged, oracle


def _law_mismatch(run) -> str | None:
    """Why a packet run's built law is not the Phantom law its config
    names, if it is not.  The public builders take an algorithm factory
    and leave it out of the config, so the config alone cannot tell an
    ERICA run, or Phantom at another factor, from the default."""
    config = run.config
    if config is None or gate_reason(config) is not None:
        return None                    # the judge excuses these itself
    algorithm = run.bottleneck.algorithm
    named = PhantomParams(**(config.get("algorithm_params") or {}))
    if type(algorithm) is not PhantomAlgorithm:
        return (f"built algorithm {type(algorithm).__name__} is not the "
                f"Phantom law its config names")
    built, wanted = asdict(algorithm.params), asdict(named)
    changed = [f"{key} {wanted[key]!r} -> {built[key]!r}"
               for key in sorted(built) if built[key] != wanted[key]]
    if changed:
        return (f"built Phantom parameters differ from the config's: "
                f"{', '.join(changed)}")
    return None


def _atm_checks(run, eps, queue_bound, watch):
    reason = _law_mismatch(run)
    if reason is not None:
        return [conservation_check(run),
                queue_bound_check(run, queue_bound, watch)] \
            + not_applicable("algorithm", reason), None
    return _judged(run, {vc: session.acr_probe
                         for vc, session in run.net.sessions.items()},
                   eps, queue_bound, watch)


def _fluid_checks(run, eps, queue_bound, watch):
    return _judged(run, {cohort.name: cohort.rate_probe
                         for cohort in run.net.cohorts},
                   eps, queue_bound, watch)


def _tcp_checks(run, eps, queue_bound, watch):
    checks = [conservation_check(run),
              queue_bound_check(run, queue_bound, watch)]
    # TCP's AIMD hunts around the fair share by design — there is no
    # settled explicit rate for the ε-band argument to bound.
    return checks + not_applicable(
        "tcp", "TCP window control has no settled explicit rate"), None


def _hybrid_checks(run, eps, queue_bound, watch):
    # judge the packet-accurate foreground; fold the fluid background's
    # ledger and queues in as extra named checks so a background
    # violation still taints the run
    checks = [conservation_check(run.atm),
              queue_bound_check(run.atm, queue_bound, watch)]
    fluid_cons = conservation_check(run.fluid)
    fluid_cons["name"] = "conservation.fluid"
    fluid_queue = queue_bound_check(run.fluid)
    fluid_queue["name"] = "queue_bound.fluid"
    checks += [fluid_cons, fluid_queue]
    reason = ("hybrid foreground shares its trunks with a fluid "
              "background the packet oracle cannot see")
    return checks + not_applicable("hybrid", reason), None


def _checks_for(run, eps, queue_bound, watch):
    if hasattr(run, "coupling"):                       # HybridRun
        build = _hybrid_checks
    elif hasattr(run.net, "steps"):                    # FluidRun
        build = _fluid_checks
    elif hasattr(run.net, "flows"):                    # TcpRun
        build = _tcp_checks
    else:                                              # AtmRun
        build = _atm_checks
    return build(run, eps, queue_bound, watch)


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def build_health(run, *, scenario: str | None = None,
                 eps: float = DEFAULT_EPS,
                 queue_bound: float | None = None,
                 queue_watch: QueueWatch | None = None) -> dict[str, Any]:
    """Assemble the HealthReport for a completed run handle.

    ``scenario`` is the registry name (``"atm.staggered"``) the report
    is labelled with; the oracle checks are gated by the config the run
    was built from (:mod:`repro.obs.judge`).  ``queue_bound`` overrides the derived per-port bound (cells or
    packets); ``queue_watch`` merges a live :class:`QueueWatch`'s
    first-violation timestamps into the queue verdict.

    Never raises: an internal monitor failure becomes a
    ``monitor_error`` check with the exception in evidence.
    """
    oracle = None
    try:
        checks, oracle = _checks_for(run, eps, queue_bound, queue_watch)
    except Exception as exc:  # never take the caller down
        checks = [check("monitor_error", NOT_APPLICABLE,
                        evidence={"error":
                                  f"{type(exc).__name__}: {exc}"})]
    report: dict[str, Any] = {
        "schema": HEALTH_SCHEMA,
        "version": HEALTH_VERSION,
        "scenario": scenario,
        "eps": eps,
        "verdict": verdict_of(checks),
        "checks": checks,
    }
    if oracle is not None:
        report["oracle"] = dict(sorted(oracle.items()))
    return report


def validate_health(report: Any) -> list[str]:
    """Check the HealthReport invariants; empty list means well-formed."""
    problems: list[str] = []
    if not isinstance(report, dict):
        return ["health report is not an object"]
    if report.get("schema") != HEALTH_SCHEMA:
        problems.append(f"schema {report.get('schema')!r}, "
                        f"expected {HEALTH_SCHEMA!r}")
    if report.get("version") != HEALTH_VERSION:
        problems.append(f"version {report.get('version')!r}, "
                        f"expected {HEALTH_VERSION}")
    checks = report.get("checks")
    if not isinstance(checks, list) or not checks:
        return problems + ["checks must be a non-empty list"]
    for i, entry in enumerate(checks):
        if not isinstance(entry, dict):
            problems.append(f"checks[{i}] is not an object")
            continue
        if not isinstance(entry.get("name"), str):
            problems.append(f"checks[{i}]: bad or missing name")
        if entry.get("verdict") not in (PASS, VIOLATED, NOT_APPLICABLE):
            problems.append(
                f"checks[{i}]: bad verdict {entry.get('verdict')!r}")
        ts = entry.get("first_violation_ts")
        if ts is not None and not isinstance(ts, (int, float)):
            problems.append(f"checks[{i}]: bad first_violation_ts")
        if not isinstance(entry.get("evidence"), dict):
            problems.append(f"checks[{i}]: bad or missing evidence")
    if not problems and report.get("verdict") != verdict_of(checks):
        problems.append(
            f"verdict {report.get('verdict')!r} does not fold from "
            f"the checks ({verdict_of(checks)!r})")
    return problems


def merge_health(reports: Mapping[str, Mapping[str, Any]]
                 ) -> dict[str, Any]:
    """Aggregate per-run reports (keyed by task/run id) for a suite.

    The fold is worst-of across runs; ``violated`` names each failing
    run with its failing checks so ``repro suite --health`` can print
    an actionable table and exit non-zero.  ``not_applicable`` counts
    the runs whose oracle checks were excused, by the judge's gate.
    """
    verdicts = {PASS: 0, VIOLATED: 0, NOT_APPLICABLE: 0}
    by_check: dict[str, dict[str, int]] = {}
    by_gate: dict[str, int] = {}
    violated: dict[str, list[str]] = {}
    for run_id in sorted(reports):
        report = reports[run_id]
        verdicts[report["verdict"]] += 1
        bad: list[str] = []
        for entry in report.get("checks", []):
            counts = by_check.setdefault(
                entry["name"], {PASS: 0, VIOLATED: 0, NOT_APPLICABLE: 0})
            counts[entry["verdict"]] += 1
            if entry["verdict"] == VIOLATED:
                bad.append(entry["name"])
        gate = _gate_of(report)
        if gate is not None:
            by_gate[gate] = by_gate.get(gate, 0) + 1
        if bad:
            violated[run_id] = bad
    if verdicts[VIOLATED]:
        overall = VIOLATED
    elif verdicts[PASS]:
        overall = PASS
    else:
        overall = NOT_APPLICABLE
    return {
        "schema": SUITE_HEALTH_SCHEMA,
        "version": HEALTH_VERSION,
        "runs": len(reports),
        "verdict": overall,
        "verdicts": verdicts,
        "checks": {name: by_check[name] for name in sorted(by_check)},
        "not_applicable": dict(sorted(by_gate.items())),
        "violated": violated,
    }


def _gate_of(report: Mapping[str, Any]) -> str | None:
    """The gate that excused a report's oracle checks, if one did."""
    for entry in report.get("checks", []):
        if entry["name"] in ORACLE_CHECKS \
                and entry["verdict"] == NOT_APPLICABLE:
            return entry["evidence"].get("gate", "unknown")
    return None


__all__ = [
    "CHECK_NAMES", "DEFAULT_EPS", "HEALTH_SCHEMA", "HEALTH_VERSION",
    "ORACLE_CHECKS", "SUITE_HEALTH_SCHEMA", "build_health",
    "merge_health", "oracle_allocation", "validate_health", "verdict_of",
]
