"""Regression report over the run store: sparklines, MAD flags, HTML.

``repro report`` reads the append-only store
(:mod:`repro.obs.store`) and renders the perf trajectory two ways — a
terminal summary with unicode sparklines, and a self-contained HTML
dashboard (inline CSS + SVG, no external assets) — flagging two kinds
of regression:

* **MAD outliers** (warnings).  For each scalar metric, the latest
  value is compared against the median of the trailing window using
  the median absolute deviation: robust z = 0.6745·(x − median)/MAD.
  |z| > 3.5 flags the run.  MAD is used instead of the standard
  deviation because a perf history is exactly the place where a few
  wild runs would inflate σ and mask real drift.
* **Deterministic drift** (failures, rendered in red).  Billed seconds
  and billed cost are *exact* functions of the seed — the executor is
  a deterministic discrete-event simulation — so within one
  (kind, seed, scale, design) group those values must be bit-identical
  across runs.  Any difference is a correctness bug, not noise, and
  makes ``repro report`` exit non-zero.

Histogram metrics get percentile summaries (p50/p90/p99) computed from
the merged log2 bins — no raw samples are ever stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .store import (
    RunRecord,
    histogram_percentile,
    merged_histogram,
    metric_names,
    metric_series,
)

__all__ = [
    "DETERMINISTIC_METRICS",
    "RegressionFlag",
    "MetricRow",
    "HistogramRow",
    "RunReport",
    "sparkline",
    "mad_outlier",
    "deterministic_drift",
    "build_report",
    "render_text",
    "render_html",
]

#: Metrics that are exact functions of the seed: any value drift within
#: a (kind, seed, scale, design) group is a correctness bug.
DETERMINISTIC_METRICS: Tuple[str, ...] = (
    "executor.billed_seconds",
    "executor.billed_cost",
    # Service layer: per-job billing (service.job records) is an exact
    # function of the session seed.
    "service.job.total_cost",
    "service.job.sim_seconds",
    # The deadline verdict and the deadline itself are pure functions of
    # the job seed (the executor simulation is), so they drift-gate too —
    # which transitively pins the SLO engine's deadline-hit-rate input.
    "service.job.met_deadline",
    "service.job.deadline_seconds",
)

#: Robust-z threshold for MAD outlier flags.
MAD_THRESHOLD = 3.5

#: Consistency constant: robust z = _MAD_SCALE * (x - median) / MAD.
_MAD_SCALE = 0.6745

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class RegressionFlag:
    """One flagged metric: ``kind`` is ``"mad"`` or ``"deterministic"``."""

    metric: str
    kind: str
    message: str


@dataclass
class MetricRow:
    """One scalar metric's series across the store, plus its flag."""

    name: str
    values: List[float]
    flag: Optional[RegressionFlag] = None

    @property
    def last(self) -> float:
        return self.values[-1]


@dataclass
class HistogramRow:
    """Percentile summary of one histogram merged across runs."""

    name: str
    count: int
    percentiles: Dict[str, float] = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything the renderers need, regression verdict included."""

    runs: List[RunRecord]
    rows: List[MetricRow] = field(default_factory=list)
    histogram_rows: List[HistogramRow] = field(default_factory=list)
    drift: List[RegressionFlag] = field(default_factory=list)
    window: int = 8

    @property
    def ok(self) -> bool:
        """True iff no deterministic metric drifted (MAD flags warn only)."""
        return not self.drift

    @property
    def outliers(self) -> List[RegressionFlag]:
        return [r.flag for r in self.rows if r.flag is not None]


def sparkline(
    values: Sequence[Optional[float]],
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """Unicode trend line: one block character per value.

    The scale runs from ``lo`` to ``hi`` (default: the series' own min
    and max); values outside it are clamped, ``None`` renders as ``·``,
    and a flat scale draws every value at the fourth block.
    """
    present = [v for v in values if v is not None]
    lo = min(present, default=0.0) if lo is None else lo
    hi = max(present, default=0.0) if hi is None else hi
    top = len(_SPARK_BLOCKS) - 1
    out = []
    for value in values:
        if value is None:
            out.append("·")
        elif hi <= lo:
            out.append(_SPARK_BLOCKS[3])
        else:
            scaled = (min(hi, max(lo, value)) - lo) / (hi - lo)
            out.append(_SPARK_BLOCKS[min(top, int(scaled * top))])
    return "".join(out)


def mad_outlier(
    values: Sequence[float],
    window: int = 8,
    threshold: float = MAD_THRESHOLD,
) -> Optional[str]:
    """MAD check of the latest value against its trailing window.

    Returns a message when the latest value is a robust-z outlier (or
    jumps off a perfectly constant baseline), ``None`` otherwise.
    Needs at least 3 baseline values to say anything.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(values) < 4:
        return None
    baseline = sorted(values[-(window + 1):-1])
    if len(baseline) < 3:
        return None
    latest = values[-1]
    mid = len(baseline) // 2
    if len(baseline) % 2:
        median = baseline[mid]
    else:
        median = (baseline[mid - 1] + baseline[mid]) / 2.0
    deviations = sorted(abs(v - median) for v in baseline)
    if len(deviations) % 2:
        mad = deviations[mid]
    else:
        mad = (deviations[mid - 1] + deviations[mid]) / 2.0
    if mad > 0.0:
        z = _MAD_SCALE * (latest - median) / mad
        if abs(z) > threshold:
            return (
                f"latest {latest:.6g} is a robust-z {z:+.1f} outlier vs "
                f"trailing median {median:.6g} (MAD {mad:.3g}, "
                f"window {len(baseline)})"
            )
        return None
    # Constant baseline: any material departure is a jump.
    if abs(latest - median) > 1e-12 * max(1.0, abs(median)):
        return (
            f"latest {latest:.6g} departs a constant baseline of "
            f"{median:.6g} (window {len(baseline)})"
        )
    return None


def _group_key(record: RunRecord) -> Tuple:
    """Runs in one group must agree bit-for-bit on deterministic metrics."""
    return (
        record.kind,
        record.seed,
        record.scale,
        str(record.labels.get("design")),
    )


def deterministic_drift(
    runs: Sequence[RunRecord],
    metrics: Sequence[str] = DETERMINISTIC_METRICS,
) -> List[RegressionFlag]:
    """Exact-value drift check for seed-deterministic metrics.

    Groups runs by (kind, seed, scale, design); within a group every
    listed metric must repeat exactly.  Returns one flag per drifted
    (metric, group).
    """
    flags: List[RegressionFlag] = []
    for name in metrics:
        groups: Dict[Tuple, List[Tuple[RunRecord, float]]] = {}
        for record, value in metric_series(runs, name):
            groups.setdefault(_group_key(record), []).append((record, value))
        for key, pairs in sorted(groups.items(), key=lambda kv: repr(kv[0])):
            values = [v for _, v in pairs]
            if len(values) < 2 or all(v == values[0] for v in values):
                continue
            revs = ", ".join(
                f"{rec.rev}={value!r}" for rec, value in pairs
            )
            kind, seed, scale, design = key
            flags.append(
                RegressionFlag(
                    metric=name,
                    kind="deterministic",
                    message=(
                        f"{name} must be bit-stable for "
                        f"kind={kind} seed={seed} scale={scale} "
                        f"design={design} but drifted: {revs}"
                    ),
                )
            )
    return flags


def build_report(
    runs: Sequence[RunRecord],
    window: int = 8,
    metric_filter: Optional[Sequence[str]] = None,
    deterministic_metrics: Sequence[str] = DETERMINISTIC_METRICS,
) -> RunReport:
    """Assemble the full report: rows, histogram summaries, drift flags."""
    runs = list(runs)
    report = RunReport(runs=runs, window=window)
    if not runs:
        return report

    def selected(name: str) -> bool:
        if not metric_filter:
            return True
        return any(pattern in name for pattern in metric_filter)

    for name in metric_names(runs):
        if not selected(name):
            continue
        values = [value for _, value in metric_series(runs, name)]
        if not values:
            continue
        row = MetricRow(name=name, values=values)
        message = mad_outlier(values, window=window)
        if message is not None:
            row.flag = RegressionFlag(metric=name, kind="mad", message=message)
        report.rows.append(row)

    hist_names = sorted(
        {
            name
            for record in runs
            for name in record.metrics.get("histograms", {})
        }
    )
    for name in hist_names:
        if not selected(name):
            continue
        hist = merged_histogram(runs, name)
        if hist is None or hist.count == 0:
            continue
        report.histogram_rows.append(
            HistogramRow(
                name=name,
                count=hist.count,
                percentiles={
                    f"p{q}": histogram_percentile(hist, float(q))
                    for q in (50, 90, 99)
                },
            )
        )

    report.drift = deterministic_drift(runs, metrics=deterministic_metrics)
    return report


# ----------------------------------------------------------------------
# Terminal rendering
# ----------------------------------------------------------------------
def render_text(report: RunReport, store_path: str = "") -> str:
    """Deterministic terminal summary with sparklines and flags."""
    where = f" in {store_path}" if store_path else ""
    if not report.runs:
        return f"repro report: no runs{where}"
    revs = [record.rev for record in report.runs]
    kinds = sorted({record.kind for record in report.runs})
    lines = [
        f"repro report: {len(report.runs)} runs{where} "
        f"(kinds: {', '.join(kinds)}; revs: {revs[0]} .. {revs[-1]})"
    ]
    if report.rows:
        lines.append(f"{'metric':<44} {'n':>3} {'last':>12}  trend")
        for row in report.rows:
            lines.append(
                f"{row.name:<44} {len(row.values):>3} {row.last:>12.6g}  "
                f"{sparkline(row.values)}"
                + ("  ⚠ MAD outlier" if row.flag else "")
            )
        for row in report.rows:
            if row.flag is not None:
                lines.append(f"  ⚠ {row.flag.message}")
    if report.histogram_rows:
        lines.append("histograms (log2-bin percentiles, merged across runs)")
        for hist in report.histogram_rows:
            ps = "  ".join(
                f"{k}={v:.6g}" for k, v in sorted(hist.percentiles.items())
            )
            lines.append(f"  {hist.name:<42} n={hist.count:<6} {ps}")
    if report.drift:
        lines.append(
            f"DETERMINISTIC DRIFT: {len(report.drift)} metric group(s) "
            f"changed under a fixed seed — this is a correctness bug"
        )
        for flag in report.drift:
            lines.append(f"  ✗ {flag.message}")
    else:
        lines.append("deterministic metrics: bit-stable across runs ✓")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML dashboard (self-contained: inline CSS + SVG, no external assets)
# ----------------------------------------------------------------------
def _escape(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _spark_svg(values: Sequence[float], width: int = 160, height: int = 36) -> str:
    """Inline SVG sparkline; native <title> tooltips carry the values."""
    if not values:
        return ""
    pad = 3
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)
    step = (width - 2 * pad) / max(1, n - 1)

    def xy(i: int, v: float) -> Tuple[float, float]:
        x = pad + i * step if n > 1 else width / 2.0
        y = height - pad - (v - lo) / span * (height - 2 * pad)
        return x, y

    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in (xy(i, v) for i, v in enumerate(values)))
    lx, ly = xy(n - 1, values[-1])
    title = ", ".join(f"{v:.6g}" for v in values)
    return (
        f'<svg class="spark" role="img" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
        f"<title>{_escape(title)}</title>"
        f'<polyline fill="none" stroke="var(--series-1)" stroke-width="2" '
        f'stroke-linecap="round" stroke-linejoin="round" points="{points}"/>'
        f'<circle cx="{lx:.1f}" cy="{ly:.1f}" r="3" fill="var(--series-1)"/>'
        f"</svg>"
    )


_HTML_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --text-primary: #0b0b0b; --text-secondary: #52514e;
  --series-1: #2a78d6; --status-warning: #fab219; --status-critical: #d03b3b;
  --border: #e4e3df;
  background: var(--surface-1); color: var(--text-primary);
  font: 14px/1.5 system-ui, sans-serif; margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --text-primary: #ffffff;
    --text-secondary: #c3c2b7; --series-1: #3987e5; --border: #3a3a38;
  }
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root h2 { font-size: 14px; margin: 24px 0 8px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 16px; }
.viz-root table { border-collapse: collapse; width: 100%; max-width: 960px; }
.viz-root th, .viz-root td {
  text-align: left; padding: 6px 12px 6px 0;
  border-bottom: 1px solid var(--border);
  font-variant-numeric: tabular-nums;
}
.viz-root th { color: var(--text-secondary); font-weight: 600; }
.viz-root td.num { text-align: right; }
.viz-root .flag-warn::before { content: "\\26A0 "; }
.viz-root .flag-warn { color: var(--text-primary); }
.viz-root .flag-warn .chip, .viz-root .flag-drift .chip {
  display: inline-block; border-radius: 4px; padding: 0 6px;
  font-size: 12px; font-weight: 600;
}
.viz-root .flag-warn .chip { border: 2px solid var(--status-warning); }
.viz-root .flag-drift .chip {
  border: 2px solid var(--status-critical); color: var(--status-critical);
}
.viz-root tr.drift td { color: var(--status-critical); }
.viz-root .verdict { margin: 16px 0; font-weight: 600; }
.viz-root .verdict.bad { color: var(--status-critical); }
.viz-root .spark { vertical-align: middle; }
"""


def render_html(report: RunReport, store_path: str = "") -> str:
    """Self-contained HTML dashboard over the store."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html><head><meta charset="utf-8">',
        "<title>repro report</title>",
        f"<style>{_HTML_STYLE}</style>",
        '</head><body class="viz-root">',
        "<h1>repro report</h1>",
    ]
    if not report.runs:
        parts.append(
            f'<p class="sub">no runs'
            f"{_escape(' in ' + store_path) if store_path else ''}</p>"
        )
        parts.append("</body></html>")
        return "\n".join(parts)

    parts.append(
        f'<p class="sub">{len(report.runs)} runs'
        + (f" in {_escape(store_path)}" if store_path else "")
        + "</p>"
    )
    drifted = {flag.metric for flag in report.drift}
    if report.drift:
        parts.append(
            f'<p class="verdict bad flag-drift"><span class="chip">'
            f"✗ deterministic drift</span> "
            f"{len(report.drift)} metric group(s) changed under a fixed "
            f"seed — correctness bug</p>"
        )
        parts.append("<ul>")
        for flag in report.drift:
            parts.append(
                f'<li class="flag-drift">{_escape(flag.message)}</li>'
            )
        parts.append("</ul>")
    else:
        parts.append(
            '<p class="verdict">deterministic metrics bit-stable '
            "across runs ✓</p>"
        )

    parts.append("<h2>Runs</h2><table>")
    parts.append(
        "<tr><th>#</th><th>timestamp (UTC)</th><th>kind</th><th>rev</th>"
        "<th>seed</th><th>scale</th><th>design</th></tr>"
    )
    for i, record in enumerate(report.runs):
        parts.append(
            f"<tr><td>{i}</td><td>{_escape(record.timestamp_utc)}</td>"
            f"<td>{_escape(record.kind)}</td><td>{_escape(record.rev)}</td>"
            f'<td class="num">{record.seed}</td>'
            f'<td class="num">{record.scale:g}</td>'
            f"<td>{_escape(record.labels.get('design', ''))}</td></tr>"
        )
    parts.append("</table>")

    if report.rows:
        parts.append("<h2>Metrics</h2><table>")
        parts.append(
            "<tr><th>metric</th><th>n</th><th>last</th><th>trend</th>"
            "<th>flag</th></tr>"
        )
        for row in report.rows:
            drift_row = row.name in drifted
            css = ' class="drift"' if drift_row else ""
            if drift_row:
                flag_cell = (
                    '<span class="flag-drift"><span class="chip">'
                    "✗ drift</span></span>"
                )
            elif row.flag is not None:
                flag_cell = (
                    f'<span class="flag-warn"><span class="chip">'
                    f"MAD outlier</span> {_escape(row.flag.message)}</span>"
                )
            else:
                flag_cell = ""
            parts.append(
                f"<tr{css}><td>{_escape(row.name)}</td>"
                f'<td class="num">{len(row.values)}</td>'
                f'<td class="num">{row.last:.6g}</td>'
                f"<td>{_spark_svg(row.values)}</td>"
                f"<td>{flag_cell}</td></tr>"
            )
        parts.append("</table>")

    if report.histogram_rows:
        parts.append("<h2>Histograms</h2><table>")
        parts.append(
            "<tr><th>histogram</th><th>n</th><th>p50</th><th>p90</th>"
            "<th>p99</th></tr>"
        )
        for hist in report.histogram_rows:
            parts.append(
                f"<tr><td>{_escape(hist.name)}</td>"
                f'<td class="num">{hist.count}</td>'
                + "".join(
                    f'<td class="num">{hist.percentiles[key]:.6g}</td>'
                    for key in ("p50", "p90", "p99")
                )
                + "</tr>"
            )
        parts.append("</table>")

    parts.append("</body></html>")
    return "\n".join(parts)
