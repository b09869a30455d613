"""Observability layer: structured tracing, metrics, run manifests.

Four pieces (see docs/OBSERVABILITY.md):

* :mod:`repro.obs.trace` — the :class:`Tracer` event bus the engine and
  both protocol stacks emit into, plus the JSONL trace format;
* :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with
  Prometheus-text and JSON exporters, populated from run handles;
* :mod:`repro.obs.manifest` — machine-readable run manifests (seed,
  parameters, git rev, platform, metric summary) and their diffing;
* :mod:`repro.obs.chrome` — Chrome ``trace_event`` conversion so traces
  load in Perfetto / ``about://tracing``;
* :mod:`repro.obs.monitor` / :mod:`repro.obs.health` — streaming
  invariant monitors (conservation, queue bounds, ε-band convergence)
  folded into per-run **HealthReports** with max-min verdicts, decided
  by the equilibrium judge :mod:`repro.obs.judge` against the Fahmy
  oracle of :mod:`repro.obs.oracle`.

``repro obs`` (see :mod:`repro.obs.cli`) is the command-line entry
point.  Tracing is opt-in and observation-only: with no tracer
installed every emit point is one ``is None`` check (lint rule OBS001),
and with one installed the simulated outcome is bit-identical — the
golden-trace suite asserts both.
"""

from repro.obs.chrome import (COUNTER_FIELDS, chrome_events, chrome_trace,
                              write_chrome_trace)
from repro.obs.health import (HEALTH_SCHEMA, HEALTH_VERSION,
                              SUITE_HEALTH_SCHEMA, build_health,
                              merge_health, oracle_allocation,
                              validate_health, verdict_of)
from repro.obs.manifest import (MANIFEST_SCHEMA, MANIFEST_VERSION,
                                build_manifest, diff_manifests,
                                git_revision, read_manifest,
                                validate_manifest, write_manifest)
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, registry_from_run)
from repro.obs.monitor import (DEFAULT_EPS, DropWatch, QueueWatch, attach,
                               conservation_check, convergence_check,
                               detach, fairness_gap_check,
                               oscillation_check, queue_bound_check,
                               vandalore_bound)
from repro.obs.trace import (CATEGORIES, TRACE_SCHEMA, TRACE_VERSION,
                             Tracer, event_dicts, read_trace_jsonl,
                             summarize_events, trace_header,
                             validate_trace_jsonl, write_trace_jsonl)

__all__ = [
    "CATEGORIES",
    "COUNTER_FIELDS",
    "DEFAULT_BUCKETS",
    "DEFAULT_EPS",
    "HEALTH_SCHEMA",
    "HEALTH_VERSION",
    "MANIFEST_SCHEMA",
    "MANIFEST_VERSION",
    "SUITE_HEALTH_SCHEMA",
    "TRACE_SCHEMA",
    "TRACE_VERSION",
    "Counter",
    "DropWatch",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "QueueWatch",
    "Tracer",
    "attach",
    "build_health",
    "build_manifest",
    "chrome_events",
    "chrome_trace",
    "conservation_check",
    "convergence_check",
    "detach",
    "diff_manifests",
    "event_dicts",
    "fairness_gap_check",
    "git_revision",
    "merge_health",
    "oracle_allocation",
    "oscillation_check",
    "queue_bound_check",
    "read_manifest",
    "read_trace_jsonl",
    "registry_from_run",
    "summarize_events",
    "trace_header",
    "validate_health",
    "validate_manifest",
    "validate_trace_jsonl",
    "vandalore_bound",
    "verdict_of",
    "write_chrome_trace",
    "write_manifest",
    "write_trace_jsonl",
]
