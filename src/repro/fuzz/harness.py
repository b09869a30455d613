"""Property harness: run generated specs, judge every outcome.

A batch goes cache-first through :func:`repro.exec.run_tasks` (same
pool, same longest-first submission, same on-disk
:class:`~repro.exec.cache.ResultCache`), then every
:class:`~repro.exec.pool.ExecResult` is folded into one of four
classifications:

``pass``
    the run completed and every applicable property held;
``violated``
    a health check (conservation, queue bound) or an oracle property
    (fair-share closeness, oracle cross-validation) failed, or the
    health pass itself failed (``monitor_error``);
``crash``
    the worker raised — builder rejection, simulation error;
``timeout``
    the task overran its wall-clock budget.

The properties are read out of each task's HealthReport, which the
worker built with the equilibrium judge (:mod:`repro.obs.judge`), so
generated runs meet the same gates, settled-rate mean and Fahmy oracle
as hand-written ones.  The classification folds the report's
``conservation``, ``queue_bound``, ``fairness_gap`` (the settled-mean
ε-band, reported here as ``oracle_gap``) and ``oracle_consistency``
checks; the instantaneous ``convergence``/``oscillation`` checks stay
in the report without deciding the classification.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.exec.pool import ExecResult, run_tasks
from repro.exec.spec import TaskSpec
from repro.obs.judge import ORACLE_CHECKS
from repro.obs.monitor import NOT_APPLICABLE, VIOLATED

#: Classification labels.
CLASS_PASS = "pass"
CLASS_VIOLATED = "violated"
CLASS_CRASH = "crash"
CLASS_TIMEOUT = "timeout"

#: HealthReport check -> the name a classification reports it under.
_FOLDED = {"conservation": "conservation", "queue_bound": "queue_bound",
           "fairness_gap": "oracle_gap",
           "oracle_consistency": "oracle_consistency"}


def classify_result(result: ExecResult) -> dict[str, Any]:
    """One judgment dict for one executed (or cached) task."""
    spec = result.spec
    judgment: dict[str, Any] = {
        "task_id": spec.task_id,
        "cached": result.cached,
    }
    if result.status == "timeout":
        judgment["classification"] = CLASS_TIMEOUT
        judgment["detail"] = result.error
        return judgment
    if result.status != "ok":
        judgment["classification"] = CLASS_CRASH
        judgment["detail"] = result.error
        return judgment

    report = result.payload.get("health") or {}
    checks = report.get("checks", ())
    if "oracle" in report:
        judgment["oracle"] = report["oracle"]
    for entry in checks:
        if entry["name"] in ORACLE_CHECKS \
                and entry["verdict"] == NOT_APPLICABLE:
            judgment["oracle_skipped"] = entry["evidence"]["reason"]
            break
    failed = [_FOLDED[c["name"]] for c in checks
              if c["name"] in _FOLDED and c["verdict"] == VIOLATED]
    errors = [c for c in checks if c["name"] == "monitor_error"]
    if errors or not checks:
        # a health pass that failed judged nothing: that is no pass
        failed.append("monitor_error")
        judgment["detail"] = (errors[0]["evidence"].get("error")
                              if errors else "no health checks in payload")
    failed.sort()
    judgment["classification"] = (CLASS_VIOLATED if failed
                                  else CLASS_PASS)
    judgment["checks"] = failed
    return judgment


def judge_batch(results: Iterable[ExecResult]) -> dict[str, Any]:
    """Judgments plus a batch summary, in submission order."""
    judgments = [classify_result(result) for result in results]
    counts = {CLASS_PASS: 0, CLASS_VIOLATED: 0, CLASS_CRASH: 0,
              CLASS_TIMEOUT: 0}
    failing: dict[str, list[str]] = {}
    for judgment in judgments:
        counts[judgment["classification"]] += 1
        if judgment["classification"] != CLASS_PASS:
            failing[judgment["task_id"]] = judgment.get("checks", [])
    return {
        "judgments": judgments,
        "counts": counts,
        "failing": failing,
        "oracle_checked": sum("oracle" in j for j in judgments),
    }


def run_campaign(specs: list[TaskSpec], *, jobs: int | None = None,
                 cache=None, timeout: float | None = None,
                 retries: int = 1,
                 ) -> tuple[list[ExecResult], dict[str, Any]]:
    """Execute a batch cache-first and judge every outcome."""
    results = run_tasks(specs, jobs=jobs, cache=cache, timeout=timeout,
                        retries=retries)
    return results, judge_batch(results)
