"""Observability: spans, metrics, exporters, profiler, run store, SLOs.

The measurement substrate for the reproduction — the paper's whole
pipeline is built on *measuring* EDA workloads, and this package applies
the same discipline to our own hot paths:

* :mod:`repro.obs.spans`   — hierarchical wall-clock spans (thread-local
  stack, monotonic clock, deterministic mode for byte-stable traces),
* :mod:`repro.obs.metrics` — counters / gauges / log-scale histograms
  with snapshot, reset and merge,
* :mod:`repro.obs.export`  — JSON, Chrome trace-event, and text-tree
  exporters,
* :mod:`repro.obs.log`     — structured span-correlated log records, the
  bounded ring-buffer flight recorder, and replayable crash dumps,
* :mod:`repro.obs.profile` — the deterministic self-time profiler over
  the span tree, its frame table and its folded-stack export,
* :mod:`repro.obs.store`   — the append-only multi-run telemetry store
  (JSONL under ``benchmarks/runs/``) with series/percentile queries,
* :mod:`repro.obs.report`  — the ``repro report`` terminal/HTML
  regression dashboard (MAD outliers + deterministic-drift checks),
* :mod:`repro.obs.attrib`  — exact critical-path latency attribution
  over stitched per-job traces (bucket sums equal end-to-end durations
  bit-for-bit under tick clocks),
* :mod:`repro.obs.slo`     — declarative SLO specs (deadline hit rate,
  percentile latency, cost budgets) evaluated deterministically over
  the run store, with error-budget burn windows.

The ambient tracer, metric registry and logger each live in a
:class:`contextvars.ContextVar`.  The tracer and logger default to
**disabled** (instrumented code pays one attribute check), the registry
to one always-on process registry (dict-lookup cheap).  :func:`scoped`
sets any of the three for the duration of a ``with`` block in the
current context only — a thread, an asyncio task, or a copied
:class:`contextvars.Context` — which is how the CLI commands, the
benchmark harness, the tests and each service job isolate their
telemetry, even when jobs run concurrently on threads.
"""

from contextlib import contextmanager
from typing import Optional

from .attrib import (
    BUCKETS,
    Attribution,
    AttributionError,
    attribute_job,
    attribute_session,
    attribution_violations,
)
from .log import (
    CRASH_SCHEMA,
    LOGGER,
    LogRecord,
    Logger,
    build_crash_report,
    crash_scope,
    default_crash_dir,
    get_logger,
    write_crash_report,
)
from .export import OpenMetricsError, parse_openmetrics, to_openmetrics
from .metrics import (
    MAX_BIN,
    METRICS,
    MIN_BIN,
    ZERO_BIN,
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    LabelError,
    MetricsRegistry,
    MetricsSnapshot,
    bin_bounds,
    get_metrics,
    histogram_bin,
    labeled_name,
    merge_snapshots,
    parse_labeled_name,
    snapshot_from_dict,
)
from .profile import FrameStat, Profile, build_profile, render_profile
from .slo import (
    SLO_SCHEMA,
    ObjectiveResult,
    SLOError,
    SLOReport,
    SLOSpec,
    SLOSpecError,
    evaluate_slo,
    load_slo_spec,
    parse_slo_spec,
)
from .spans import (
    NULL_SPAN,
    TRACER,
    Span,
    SpanEvent,
    TickClock,
    Tracer,
    get_tracer,
    mint_trace_id,
    traced,
    well_nested_violations,
)

__all__ = [
    "BUCKETS",
    "CRASH_SCHEMA",
    "MAX_BIN",
    "MIN_BIN",
    "SLO_SCHEMA",
    "ZERO_BIN",
    "Attribution",
    "AttributionError",
    "Counter",
    "FrameStat",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LabelError",
    "LogRecord",
    "Logger",
    "MetricsRegistry",
    "MetricsSnapshot",
    "NULL_SPAN",
    "ObjectiveResult",
    "OpenMetricsError",
    "Profile",
    "SLOError",
    "SLOReport",
    "SLOSpec",
    "SLOSpecError",
    "Span",
    "SpanEvent",
    "TickClock",
    "Tracer",
    "attribute_job",
    "attribute_session",
    "attribution_violations",
    "bin_bounds",
    "build_crash_report",
    "build_profile",
    "evaluate_slo",
    "load_slo_spec",
    "parse_openmetrics",
    "parse_slo_spec",
    "render_profile",
    "crash_scope",
    "default_crash_dir",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "histogram_bin",
    "labeled_name",
    "merge_snapshots",
    "mint_trace_id",
    "parse_labeled_name",
    "scoped",
    "snapshot_from_dict",
    "to_openmetrics",
    "traced",
    "well_nested_violations",
    "write_crash_report",
]


@contextmanager
def scoped(
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    log: Optional[Logger] = None,
):
    """Set the ambient tracer/metric registry/logger for a ``with`` block.

    Only the values given are set, in the current context only; each is
    reset on exit even if the body raises.  Yields ``(tracer, metrics)``
    as now ambient (the logger is reachable via :func:`get_logger`).
    """
    tokens = [
        (var, var.set(value))
        for var, value in ((TRACER, tracer), (METRICS, metrics), (LOGGER, log))
        if value is not None
    ]
    try:
        yield get_tracer(), get_metrics()
    finally:
        for var, token in reversed(tokens):
            var.reset(token)
