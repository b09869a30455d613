"""Seeded scenario fuzzing with a centralized fair-share oracle.

The subsystem turns the invariants :mod:`repro.obs.health` enforces on
hand-written scenarios into properties checked over a *search space*:

* :mod:`repro.fuzz.gen` — samples self-describing scenario configs from
  a single integer seed (topology family, session mix, schedules,
  cross-traffic, loss, algorithm + jittered gains) and wraps them in
  inline-config :class:`repro.exec.spec.TaskSpec`\\ s;
* :mod:`repro.fuzz.harness` — runs batches cache-first through
  :func:`repro.exec.run_tasks` and classifies each outcome (pass /
  violated invariant / crash / timeout) from the verdicts the
  equilibrium judge (:mod:`repro.obs.judge`, with Fahmy et al.'s
  centralized oracle, :mod:`repro.obs.oracle`) put in its
  HealthReport;
* :mod:`repro.fuzz.shrink` — greedily minimizes a failing config while
  the failure reproduces;
* :mod:`repro.fuzz.corpus` — the committed regression corpus under
  ``tests/fuzz/corpus/`` that tier-1 replays.
"""

from repro.fuzz.corpus import (CORPUS_SCHEMA, corpus_dir, load_corpus,
                               load_entry, replay_entry, write_entry)
from repro.fuzz.gen import generate_batch, generate_config
from repro.fuzz.harness import classify_result, judge_batch, run_campaign
from repro.fuzz.shrink import shrink

__all__ = [
    "CORPUS_SCHEMA", "classify_result", "corpus_dir", "generate_batch",
    "generate_config", "judge_batch", "load_corpus", "load_entry",
    "replay_entry", "run_campaign", "shrink", "write_entry",
]
