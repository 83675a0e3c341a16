"""repro.obs — observability for the study pipeline.

The paper's §4 argues measurements should carry *why they were taken
and under what conditions*; this subsystem applies that standard to
the reproduction's own pipeline:

- :mod:`repro.obs.trace` — hierarchical wall-clock spans
  (``span``/``traced``), JSONL export, and order-stable cross-process
  merge, so a parallel study's trace has the same tree shape as the
  serial one;
- :mod:`repro.obs.metrics` — counters, timestamped gauge series, and
  fixed-bucket histograms with a Prometheus-style text dump and
  worker-snapshot merging;
- :mod:`repro.obs.capture` — the worker-side shim the executor uses to
  ship spans/metrics/tracebacks home with each result;
- :mod:`repro.obs.report` — aligned text rendering of span trees
  (shared by the CLI and the benchmark harness);
- :mod:`repro.obs.profile` — self-time, hotspot, critical-path, and
  folded-stack (flame graph) analysis over recorded traces;
- :mod:`repro.obs.resources` — a background sampler recording RSS,
  checkpoint size, executor queue depth, and GC pressure into
  timestamped gauge series;
- :mod:`repro.obs.serve` — the live telemetry endpoint
  (``/metrics``, ``/health``, ``/live``) over a stream's publisher,
  loaded on first use of its names (it imports ``http.server``, which
  no run without telemetry needs);
- :mod:`repro.obs.logs` — stdlib-logging wiring (`NullHandler` at the
  package root, a ``--log-level`` configurator for the CLI).
"""

from repro.obs.capture import (
    WorkerOutcome,
    WorkerTraceback,
    absorb_outcome,
    run_captured,
)
from repro.obs.logs import configure_logging, install_null_handler
from repro.obs.metrics import (
    COUNT_BUCKETS,
    SECONDS_BUCKETS,
    Counter,
    GaugeSeries,
    Histogram,
    MetricsRegistry,
    get_metrics,
    set_metrics,
)
from repro.obs.profile import (
    Hotspot,
    critical_path,
    export_folded,
    folded_stacks,
    format_critical_path,
    format_hotspots,
    hotspots,
    self_times,
)
from repro.obs.report import render_trace, span_counts
from repro.obs.resources import ResourceSample, ResourceSampler, take_resource_sample
from repro.obs.trace import (
    SpanRecord,
    Tracer,
    export_jsonl,
    get_tracer,
    load_jsonl,
    merge_worker_records,
    set_tracing,
    span,
    to_jsonl_lines,
    traced,
    tracing_disabled,
)

__all__ = [
    "COUNT_BUCKETS",
    "Counter",
    "GaugeSeries",
    "Histogram",
    "Hotspot",
    "MetricsRegistry",
    "ResourceSample",
    "ResourceSampler",
    "SECONDS_BUCKETS",
    "SpanRecord",
    "TelemetryMux",
    "TelemetryPublisher",
    "TelemetryServer",
    "Tracer",
    "WorkerOutcome",
    "WorkerTraceback",
    "absorb_outcome",
    "configure_logging",
    "critical_path",
    "export_folded",
    "export_jsonl",
    "fault_load",
    "folded_stacks",
    "format_critical_path",
    "format_hotspots",
    "get_metrics",
    "get_tracer",
    "hotspots",
    "install_null_handler",
    "load_jsonl",
    "merge_worker_records",
    "render_trace",
    "run_captured",
    "self_times",
    "set_metrics",
    "set_tracing",
    "span",
    "span_counts",
    "take_resource_sample",
    "to_jsonl_lines",
    "traced",
    "tracing_disabled",
]

_SERVE_NAMES = frozenset(
    {"TelemetryMux", "TelemetryPublisher", "TelemetryServer", "fault_load"}
)


def __getattr__(name: str):
    """Serve the telemetry server's names, importing it on first access."""
    if name in _SERVE_NAMES:
        from repro.obs import serve

        return getattr(serve, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
