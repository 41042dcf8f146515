"""Observability: spans, metrics, exporters, profiler, run store, SLOs.

The measurement substrate for the reproduction — the paper's whole
pipeline is built on *measuring* EDA workloads, and this package applies
the same discipline to our own hot paths:

* :mod:`repro.obs.spans`   — hierarchical wall-clock spans (thread-local
  stack, monotonic clock, deterministic mode for byte-stable traces),
* :mod:`repro.obs.metrics` — process-local counters / gauges / log-scale
  histograms with snapshot, reset and merge,
* :mod:`repro.obs.export`  — JSON, Chrome trace-event, and text-tree
  exporters,
* :mod:`repro.obs.log`     — structured span-correlated log records, the
  bounded ring-buffer flight recorder, and replayable crash dumps,
* :mod:`repro.obs.profile` — the deterministic self-time profiler over
  the span tree, folded-stack/flame exports, and the profile differ,
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

The global tracer and logger start **disabled** (instrumented code pays
one attribute check), the global metric registry is always on
(dict-lookup cheap).  :func:`scoped` swaps any of the three for the
duration of a ``with`` block, which is how the CLI commands, the
benchmark harness, and the tests isolate their telemetry.
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
    LogRecord,
    Logger,
    build_crash_report,
    crash_scope,
    default_crash_dir,
    get_logger,
    set_logger,
    write_crash_report,
)
from .export import OpenMetricsError, parse_openmetrics, to_openmetrics
from .metrics import (
    MAX_BIN,
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
    set_metrics,
    snapshot_from_dict,
)
from .profile import (
    PROFILE_SCHEMA,
    FrameStat,
    Profile,
    ProfileDiff,
    SamplingProfiler,
    build_profile,
    diff_profiles,
    load_profile,
    parse_folded,
    render_diff,
    render_flame_html,
    render_profile,
)
from .slo import (
    SLO_SCHEMA,
    ObjectiveResult,
    SLOError,
    SLOReport,
    SLOSpec,
    SLOSpecError,
    burn_sparkline,
    evaluate_slo,
    load_slo_spec,
    parse_slo_spec,
)
from .spans import (
    NULL_SPAN,
    Span,
    SpanEvent,
    TickClock,
    Tracer,
    get_tracer,
    mint_trace_id,
    set_tracer,
    traced,
    well_nested_violations,
)

__all__ = [
    "BUCKETS",
    "CRASH_SCHEMA",
    "MAX_BIN",
    "MIN_BIN",
    "PROFILE_SCHEMA",
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
    "ProfileDiff",
    "SLOError",
    "SLOReport",
    "SLOSpec",
    "SLOSpecError",
    "SamplingProfiler",
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
    "burn_sparkline",
    "diff_profiles",
    "evaluate_slo",
    "load_profile",
    "load_slo_spec",
    "parse_folded",
    "parse_openmetrics",
    "parse_slo_spec",
    "render_diff",
    "render_flame_html",
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
    "set_logger",
    "set_metrics",
    "set_tracer",
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
    """Temporarily install tracer/metric-registry/logger globals.

    Restores the previous globals on exit even if the body raises; yields
    ``(tracer, metrics)`` as actually installed (the logger is reachable
    via :func:`get_logger`).
    """
    prev_tracer = set_tracer(tracer) if tracer is not None else None
    prev_metrics = set_metrics(metrics) if metrics is not None else None
    prev_logger = set_logger(log) if log is not None else None
    try:
        yield get_tracer(), get_metrics()
    finally:
        if tracer is not None:
            set_tracer(prev_tracer)
        if metrics is not None:
            set_metrics(prev_metrics)
        if log is not None:
            set_logger(prev_logger)
