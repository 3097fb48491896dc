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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "events": (
        "SCHEMA_VERSION", "CGJump", "ConfigApplied", "EVENT_TYPES",
        "FGConverged", "FGRevert", "FGStep", "KernelLaunch", "PhaseChange",
        "TelemetryEvent", "event_from_record",
    ),
    "export": (
        "InMemorySink", "JsonlSink", "ReplayTrace", "export_trace",
        "load_events", "replay_trace",
    ),
    "handle": ("NULL_TELEMETRY", "NullTelemetry", "Telemetry", "coalesce"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "profile": ("Profiler", "SectionStat"),
    "spans": (
        "SPAN_SCHEMA_VERSION", "SpanRecord", "SpanTracker", "aggregate_spans",
        "ambient_telemetry", "capture_span_context", "format_span_report",
        "load_chrome_trace", "span_tree", "tree_signature", "use_span_context",
        "write_chrome_trace",
    ),
})
