"""Observability layer: metrics, tracing, structured logs, run manifests.

``repro.obs`` is the zero-dependency instrumentation layer every other
subsystem reports into (see ``docs/OBSERVABILITY.md``):

* :mod:`repro.obs.metrics` — counters / gauges / histograms in a
  thread-safe :class:`MetricsRegistry`;
* :mod:`repro.obs.trace` — the :class:`Observer` (span-based tracing +
  event emission on a monotonic clock) and the module-global hook
  (:func:`get_observer` / :func:`observing`) instrumented code polls;
* :mod:`repro.obs.manifest` — event sinks, most importantly the JSONL
  run-manifest writer behind the CLI's ``--trace-out``;
* :mod:`repro.obs.events` — the closed event schema and the manifest
  validators the schema tests and the CI smoke step run;
* :mod:`repro.obs.log` — structured leveled logging to stderr and the
  manifest;
* :mod:`repro.obs.progress` — live progress lines and post-run
  summaries for the parallel executors;
* :mod:`repro.obs.reader` — the streaming, truncation-tolerant
  manifest reader with span-tree reconstruction;
* :mod:`repro.obs.report` — per-run analysis (``repro obs report``);
* :mod:`repro.obs.compare` — run-to-run diff with regression gating
  (``repro obs compare``, the CI perf gate);
* :mod:`repro.obs.resources` — opt-in tracemalloc/cProfile profiling
  (the ``repro-obs/2`` event types);
* :mod:`repro.obs.health` — live numerical-health watchdogs feeding
  named, rate-limited alarms (the ``repro-obs/3`` ``health`` events);
* :mod:`repro.obs.slo` — sliding-window serve SLOs (latency
  quantiles, error rate; the ``repro-obs/3`` ``slo`` events);
* :mod:`repro.obs.tail` — live, truncation-tolerant manifest tailing
  (``repro obs tail``).

Everything is opt-in: with no observer installed the instrumented hot
paths reduce to one global read, and results are bitwise identical
either way.
"""

from repro.obs.compare import (
    Comparison,
    compare_bench,
    compare_manifests,
    compare_paths,
)
from repro.obs.events import (
    EVENT_TYPES,
    OBS_SCHEMA,
    OBS_SCHEMA_V1,
    OBS_SCHEMA_V2,
    SUPPORTED_SCHEMAS,
    validate_event,
    validate_manifest,
)
from repro.obs.health import AlarmState, HealthMonitor
from repro.obs.log import (
    get_level,
    set_level,
)
from repro.obs.manifest import EventSink, JsonlSink, MemorySink, NullSink
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.progress import ProgressAggregator, summary_text
from repro.obs.reader import Manifest, SpanNode, load_manifest
from repro.obs.report import render_report, report_text, trace_report_text
from repro.obs.resources import maybe_profiled
from repro.obs.slo import SLOTracker
from repro.obs.tail import ManifestTail, render_event, tail_manifest
from repro.obs.trace import (
    Observer,
    current_trace_ids,
    get_observer,
    install,
    new_trace_id,
    observing,
    span,
    tracing,
    uninstall,
)

__all__ = [
    "OBS_SCHEMA",
    "OBS_SCHEMA_V1",
    "OBS_SCHEMA_V2",
    "SUPPORTED_SCHEMAS",
    "EVENT_TYPES",
    "validate_event",
    "validate_manifest",
    "Manifest",
    "SpanNode",
    "load_manifest",
    "report_text",
    "render_report",
    "trace_report_text",
    "AlarmState",
    "HealthMonitor",
    "SLOTracker",
    "ManifestTail",
    "render_event",
    "tail_manifest",
    "tracing",
    "new_trace_id",
    "current_trace_ids",
    "Comparison",
    "compare_bench",
    "compare_manifests",
    "compare_paths",
    "maybe_profiled",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "EventSink",
    "JsonlSink",
    "MemorySink",
    "NullSink",
    "Observer",
    "get_observer",
    "install",
    "uninstall",
    "observing",
    "span",
    "set_level",
    "get_level",
    "ProgressAggregator",
    "summary_text",
]
