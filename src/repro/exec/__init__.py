"""Parallel experiment execution with a content-addressed result cache.

The execution layer turns "run the paper's experiments" from a serial
script into a schedulable batch:

* :mod:`repro.exec.spec` — declarative, picklable task specs;
* :mod:`repro.exec.registry` — named, importable scenario entry points
  (:mod:`repro.exec.entries` registers the builtin ones);
* :mod:`repro.exec.pool` — serial/parallel executor with bit-identical
  results at any job count;
* :mod:`repro.exec.fingerprint` / :mod:`repro.exec.cache` — spec+source
  fingerprints addressing an on-disk result cache;
* :mod:`repro.exec.suite` — E01–E26 and parameter sweeps as specs;
* :mod:`repro.exec.campaign` — the batch flow (run, report, manifest,
  bench row) shared by ``repro suite``, ``repro sweep`` and
  ``repro fuzz run``;
* :mod:`repro.exec.cli` — the ``repro suite`` / ``repro sweep``
  commands.

See docs/EXECUTION.md for the design and the determinism argument.
"""

from repro.exec.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.exec.fingerprint import (RESULT_VERSION, SourceIndex,
                                    default_index, task_fingerprint)
from repro.exec.pool import ExecResult, default_jobs, run_tasks
from repro.exec.registry import (ScenarioEntry, all_scenarios,
                                 get_scenario, register_scenario)
from repro.exec.spec import TaskSpec, canonical_json, derive_seed
from repro.exec.suite import SUITE, experiment_ids, suite_specs, sweep_specs
from repro.exec.worker import execute_task

__all__ = [
    "DEFAULT_CACHE_DIR",
    "RESULT_VERSION",
    "SUITE",
    "ExecResult",
    "ResultCache",
    "ScenarioEntry",
    "SourceIndex",
    "TaskSpec",
    "all_scenarios",
    "canonical_json",
    "default_index",
    "default_jobs",
    "derive_seed",
    "execute_task",
    "experiment_ids",
    "get_scenario",
    "register_scenario",
    "run_tasks",
    "suite_specs",
    "sweep_specs",
    "task_fingerprint",
]
