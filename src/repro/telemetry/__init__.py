"""``repro.telemetry``: zero-dependency observability for COLD training.

The layer has four pieces, all importable from this package root:

* **Metrics** — :class:`MetricsRegistry` (counters / gauges / fixed-bucket
  histograms) with per-sweep JSONL emission to ``metrics.jsonl``;
* **Tracing** — ``trace.span("sweep", sweep=i)`` markers buffered by a
  :class:`Tracer` and exported as Chrome ``trace_event`` JSON for
  ``chrome://tracing``;
* **Logging** — module loggers under the ``repro.`` hierarchy,
  :func:`configure_logging` with plain/JSON formatters, and worker-process
  log forwarding over the pool's reply pipe;
* **Attribution** — a :func:`write_run_manifest` ``run.json`` stamped at
  fit start (config hash, seed, git describe, executor topology).

Everything is stdlib-only and off-by-default-cheap: with no
``metrics_out`` / ``trace_out`` configured the instrumentation in the
samplers amounts to an attribute check per sweep, and enabling it never
touches the RNG — telemetry-on and telemetry-off fits draw bit-identical
chains (enforced by the ``benchmarks/perf`` overhead gate).
"""

from . import tracing as trace
from .context import (
    get_request_id,
    new_request_id,
    request_context,
    reset_request_id,
    sanitize_request_id,
    set_request_id,
)
from .logconfig import (
    BufferingLogHandler,
    JsonFormatter,
    PlainFormatter,
    RequestIdFilter,
    configure_logging,
    get_logger,
    parse_level,
    replay_records,
    reset_logging,
)
from .manifest import build_run_manifest, config_hash, git_describe, write_run_manifest
from .metrics import (
    BUCKET_PRESETS,
    LATENCY_BUCKETS,
    STREAM_UPDATE_BUCKETS,
    TIMING_BUCKETS,
    Counter,
    CounterFamily,
    Gauge,
    GaugeFamily,
    Histogram,
    HistogramFamily,
    JsonlWriter,
    MetricsRegistry,
    TelemetryError,
    bucket_preset,
    format_series,
    read_jsonl,
)
from .monitor import (
    MONITOR_MODES,
    monitor,
    render_combined_summary,
    render_serving_summary,
    render_stream_summary,
    render_summary,
    summarize,
    summarize_combined,
    summarize_serving,
    summarize_stream,
)
from . import profiler as profiler
from .profiler import (
    build_profile_report,
    compare_profiles,
    escape_phase,
    memory_gauges,
    parse_collapsed,
    render_collapsed,
    render_profile_report,
    span_rows,
    unescape_phase,
    worker_utilization,
)
from .prometheus import (
    PROMETHEUS_CONTENT_TYPE,
    ParsedExposition,
    Sample,
    parse_prometheus_text,
    render_prometheus,
    wants_prometheus,
)
from .session import NULL_SESSION, TelemetrySession
from .slo import SLOConfig, SLOTracker
from .tracing import Tracer, get_tracer, set_tracer, span

__all__ = [
    "BUCKET_PRESETS",
    "LATENCY_BUCKETS",
    "MONITOR_MODES",
    "NULL_SESSION",
    "PROMETHEUS_CONTENT_TYPE",
    "STREAM_UPDATE_BUCKETS",
    "TIMING_BUCKETS",
    "BufferingLogHandler",
    "Counter",
    "CounterFamily",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "JsonFormatter",
    "JsonlWriter",
    "MetricsRegistry",
    "ParsedExposition",
    "PlainFormatter",
    "RequestIdFilter",
    "SLOConfig",
    "SLOTracker",
    "Sample",
    "TelemetryError",
    "TelemetrySession",
    "Tracer",
    "bucket_preset",
    "build_profile_report",
    "build_run_manifest",
    "compare_profiles",
    "config_hash",
    "configure_logging",
    "escape_phase",
    "format_series",
    "get_logger",
    "get_request_id",
    "get_tracer",
    "git_describe",
    "memory_gauges",
    "monitor",
    "new_request_id",
    "parse_collapsed",
    "parse_level",
    "parse_prometheus_text",
    "profiler",
    "read_jsonl",
    "render_collapsed",
    "render_combined_summary",
    "render_profile_report",
    "render_prometheus",
    "render_serving_summary",
    "render_stream_summary",
    "render_summary",
    "replay_records",
    "request_context",
    "reset_logging",
    "reset_request_id",
    "sanitize_request_id",
    "set_request_id",
    "set_tracer",
    "span",
    "span_rows",
    "summarize",
    "summarize_combined",
    "summarize_serving",
    "summarize_stream",
    "trace",
    "unescape_phase",
    "wants_prometheus",
    "worker_utilization",
    "write_run_manifest",
]
