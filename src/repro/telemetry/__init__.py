"""Structured telemetry for the Harmonia runtime.

Five pieces, composable through one injectable handle:

* :mod:`repro.telemetry.events` — typed controller-decision events
  (``KernelLaunch``, ``PhaseChange``, ``CGJump``, ``FGStep``, ...) with a
  versioned JSON wire schema,
* :mod:`repro.telemetry.metrics` — a labelled counter/gauge/histogram
  registry (``cg_actions_total{kernel=...}``, ``launch_time_seconds``),
* :mod:`repro.telemetry.export` — append-only JSONL sink, loader, and a
  replay view compatible with :class:`~repro.runtime.trace.RunTrace`,
* :mod:`repro.telemetry.profile` — wall-time profiling hooks for the
  simulator and policy hot paths,
* :mod:`repro.telemetry.spans` — hierarchical spans with ambient context
  propagation across thread fan-out, Chrome trace-event export
  (Perfetto-loadable) and a self-vs-total critical-path report.

Instrumented components accept a :class:`Telemetry` handle and default to
:data:`NULL_TELEMETRY`, whose operations are no-ops — with telemetry
disabled, control decisions and experiment outputs are bit-identical to
an uninstrumented build.
"""

from repro.telemetry.events import (
    SCHEMA_VERSION,
    CGJump,
    ConfigApplied,
    EVENT_TYPES,
    FGConverged,
    FGRevert,
    FGStep,
    KernelLaunch,
    PhaseChange,
    TelemetryEvent,
    event_from_record,
)
from repro.telemetry.export import (
    InMemorySink,
    JsonlSink,
    ReplayTrace,
    export_trace,
    load_events,
    replay_trace,
)
from repro.telemetry.handle import NULL_TELEMETRY, NullTelemetry, Telemetry, coalesce
from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.profile import Profiler, SectionStat
from repro.telemetry.spans import (
    SPAN_SCHEMA_VERSION,
    SpanRecord,
    SpanTracker,
    aggregate_spans,
    ambient_telemetry,
    capture_span_context,
    format_span_report,
    load_chrome_trace,
    span_tree,
    tree_signature,
    use_span_context,
    write_chrome_trace,
)

__all__ = [
    "SCHEMA_VERSION",
    "EVENT_TYPES",
    "TelemetryEvent",
    "KernelLaunch",
    "PhaseChange",
    "CGJump",
    "FGStep",
    "FGRevert",
    "FGConverged",
    "ConfigApplied",
    "event_from_record",
    "JsonlSink",
    "InMemorySink",
    "ReplayTrace",
    "replay_trace",
    "load_events",
    "export_trace",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "coalesce",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Profiler",
    "SectionStat",
    "SPAN_SCHEMA_VERSION",
    "SpanRecord",
    "SpanTracker",
    "aggregate_spans",
    "ambient_telemetry",
    "capture_span_context",
    "format_span_report",
    "load_chrome_trace",
    "span_tree",
    "tree_signature",
    "use_span_context",
    "write_chrome_trace",
]
