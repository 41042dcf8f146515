"""Trace and metrics exporters: JSON, Chrome trace-event, text tree.

Three views of the same span list:

* :func:`span_tree` / :func:`to_json_doc` — a nested JSON document (the
  ``repro-trace/1`` schema) with full timing, tags and instant events,
* :func:`structural_tree` — the *shape only* (names, nesting, sorted tag
  keys, event names), which is what the golden-trace tests compare —
  timings never leak in,
* :func:`to_chrome_trace` — the Chrome ``chrome://tracing`` /  Perfetto
  trace-event format (``ph: "X"`` complete events in microseconds, with
  ``ph: "i"`` instants), loadable straight into the browser,
* :func:`render_tree` — a compact indented text tree for the CLI.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import MetricsSnapshot, bin_bounds, parse_labeled_name
from .spans import Span

__all__ = [
    "TRACE_SCHEMA",
    "OpenMetricsError",
    "span_tree",
    "structural_tree",
    "to_json_doc",
    "to_chrome_trace",
    "to_openmetrics",
    "parse_openmetrics",
    "render_tree",
    "render_metrics",
]

#: Schema tag stamped into every exported JSON trace document.
TRACE_SCHEMA = "repro-trace/1"


def _children_index(spans: Sequence[Span]) -> Dict[Optional[int], List[Span]]:
    index: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        index.setdefault(span.parent_id, []).append(span)
    for children in index.values():
        children.sort(key=lambda s: s.span_id)
    return index


def span_tree(spans: Sequence[Span]) -> List[dict]:
    """Nest the flat span list into a list of root dicts (full detail)."""
    index = _children_index(spans)

    def node(span: Span) -> dict:
        return {
            "name": span.name,
            "start": span.start,
            "duration": span.duration,
            "thread": span.thread,
            "trace_id": span.trace_id,
            "span_uid": span.uid,
            "tags": dict(span.tags),
            "events": [
                {"name": e.name, "time": e.time, "tags": dict(e.tags)}
                for e in span.events
            ],
            "children": [node(c) for c in index.get(span.span_id, [])],
        }

    return [node(root) for root in index.get(None, [])]


def structural_tree(spans: Sequence[Span]) -> List[dict]:
    """Timing-free shape: names, nesting, sorted tag keys, event names."""
    index = _children_index(spans)

    def node(span: Span) -> dict:
        return {
            "name": span.name,
            "tags": sorted(span.tags),
            "events": [e.name for e in span.events],
            "children": [node(c) for c in index.get(span.span_id, [])],
        }

    return [node(root) for root in index.get(None, [])]


def to_json_doc(
    spans: Sequence[Span],
    metrics: Optional[MetricsSnapshot] = None,
) -> dict:
    """The full ``repro-trace/1`` document (spans + metric snapshot)."""
    doc = {"schema": TRACE_SCHEMA, "spans": span_tree(spans)}
    if metrics is not None:
        doc["metrics"] = metrics.to_dict()
    return doc


def to_chrome_trace(spans: Sequence[Span]) -> dict:
    """Chrome trace-event JSON (open in ``chrome://tracing`` / Perfetto)."""
    tids: Dict[str, int] = {}
    events: List[dict] = []
    for span in spans:
        tid = tids.setdefault(span.thread, len(tids) + 1)
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": span.start * 1e6,
                "dur": span.duration * 1e6,
                "args": dict(span.tags),
            }
        )
        for instant in span.events:
            events.append(
                {
                    "name": instant.name,
                    "ph": "i",
                    "s": "t",
                    "pid": 1,
                    "tid": tid,
                    "ts": instant.time * 1e6,
                    "args": dict(instant.tags),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _format_tag(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def render_tree(
    spans: Sequence[Span], show_events: bool = True, unit: str = "s"
) -> str:
    """Compact indented text tree (durations + tags on one line each)."""
    index = _children_index(spans)
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[unit]
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        indent = "  " * depth
        tags = " ".join(
            f"{k}={_format_tag(v)}" for k, v in sorted(span.tags.items())
        )
        lines.append(
            f"{indent}{span.name:<{max(1, 28 - 2 * depth)}} "
            f"{span.duration * scale:>10.3f}{unit}"
            + (f"  {tags}" if tags else "")
        )
        if show_events:
            for event in span.events:
                etags = " ".join(
                    f"{k}={_format_tag(v)}"
                    for k, v in sorted(event.tags.items())
                )
                lines.append(
                    f"{indent}  * {event.name}" + (f" {etags}" if etags else "")
                )
        for child in index.get(span.span_id, []):
            walk(child, depth + 1)

    for root in index.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def render_metrics(snapshot: MetricsSnapshot) -> str:
    """Deterministic text rendering of a metric snapshot."""
    lines: List[str] = []
    for name in sorted(snapshot.counters):
        lines.append(f"counter   {name:<36} {snapshot.counters[name]:,.4f}")
    for name in sorted(snapshot.gauges):
        lines.append(f"gauge     {name:<36} {snapshot.gauges[name]:,.4f}")
    for name in sorted(snapshot.histograms):
        h = snapshot.histograms[name]
        lines.append(
            f"histogram {name:<36} n={h.count} sum={h.total:,.4f} "
            f"min={h.min} max={h.max}"
        )
    return "\n".join(lines)


def dumps(doc: dict) -> str:
    """Deterministic JSON bytes (sorted keys, stable separators)."""
    return json.dumps(doc, sort_keys=True, indent=2)


# ----------------------------------------------------------------------
# OpenMetrics text exposition
# ----------------------------------------------------------------------
class OpenMetricsError(ValueError):
    """The snapshot cannot be exported, or the text fails validation."""


_OM_NAME_BAD_RE = re.compile(r"[^a-zA-Z0-9_:]")
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>(?:[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\]|\\.)*\",?)*)\})?"
    r" (?P<value>\S+)$"
)


def _om_family(name: str) -> str:
    """Metric-family name: dots and other separators become underscores."""
    family = _OM_NAME_BAD_RE.sub("_", name)
    if not family or family[0].isdigit():
        family = "_" + family
    return family


def _om_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


_OM_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _om_label_pairs(block: str) -> List[Tuple[str, str]]:
    return _OM_LABEL_PAIR_RE.findall(block)


def _om_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    body = ",".join(f'{k}="{_om_escape(v)}"' for k, v in pairs)
    return "{" + body + "}"


def _om_value(value: float) -> str:
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def to_openmetrics(snapshot: MetricsSnapshot) -> str:
    """OpenMetrics text exposition of one snapshot, byte-deterministic.

    Labeled series (canonical ``name{k="v"}`` registry keys) are
    re-parsed into proper label sets; dotted metric names become
    underscore families.  Counters gain the mandated ``_total`` suffix;
    log2-bin histograms export cumulative ``_bucket{le=...}`` samples on
    the power-of-two bin edges plus ``_count``/``_sum``.  Families are
    emitted in sorted order and series in sorted-key order, so the same
    snapshot always renders identical bytes.
    """
    families: Dict[str, dict] = {}

    def family_for(series: str, kind: str) -> Tuple[str, tuple]:
        base, labels = parse_labeled_name(series)
        family = _om_family(base)
        entry = families.setdefault(family, {"type": kind, "samples": []})
        if entry["type"] != kind:
            raise OpenMetricsError(
                f"metric family {family!r} would mix types "
                f"{entry['type']!r} and {kind!r}"
            )
        return family, labels

    for series in sorted(snapshot.counters):
        family, labels = family_for(series, "counter")
        families[family]["samples"].append(
            f"{family}_total{_om_labels(labels)} "
            f"{_om_value(snapshot.counters[series])}"
        )
    for series in sorted(snapshot.gauges):
        family, labels = family_for(series, "gauge")
        families[family]["samples"].append(
            f"{family}{_om_labels(labels)} "
            f"{_om_value(snapshot.gauges[series])}"
        )
    for series in sorted(snapshot.histograms):
        family, labels = family_for(series, "histogram")
        hist = snapshot.histograms[series]
        samples = families[family]["samples"]
        cumulative = 0
        saw_inf = False
        for index, count in hist.bins:
            cumulative += count
            _, hi = bin_bounds(index)
            saw_inf = saw_inf or math.isinf(hi)
            le = _om_labels(tuple(labels) + (("le", _om_value(hi)),))
            samples.append(f"{family}_bucket{le} {cumulative}")
        if not saw_inf:
            le = _om_labels(tuple(labels) + (("le", "+Inf"),))
            samples.append(f"{family}_bucket{le} {cumulative}")
        samples.append(
            f"{family}_count{_om_labels(labels)} {hist.count}"
        )
        samples.append(
            f"{family}_sum{_om_labels(labels)} {_om_value(hist.total)}"
        )

    lines: List[str] = []
    for family in sorted(families):
        lines.append(f"# TYPE {family} {families[family]['type']}")
        lines.extend(families[family]["samples"])
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def parse_openmetrics(text: str) -> Dict[str, dict]:
    """Validate OpenMetrics text; returns ``{family: {type, samples}}``.

    Checks the structural contract CI relies on: a single trailing
    ``# EOF``, every sample preceded by its family's ``# TYPE`` line,
    parseable ``name{labels} value`` samples, and per-series histogram
    buckets that are cumulative with a final ``+Inf`` bucket equal to
    ``_count``.  Raises :class:`OpenMetricsError` on the first failure.
    """
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        raise OpenMetricsError("missing trailing # EOF line")
    families: Dict[str, dict] = {}
    buckets: Dict[str, List[Tuple[str, float]]] = {}
    counts: Dict[str, float] = {}
    for number, line in enumerate(lines[:-1], start=1):
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise OpenMetricsError(f"line {number}: malformed TYPE line")
            _, _, family, kind = parts
            if family in families:
                raise OpenMetricsError(
                    f"line {number}: duplicate TYPE for {family!r}"
                )
            if kind not in ("counter", "gauge", "histogram"):
                raise OpenMetricsError(
                    f"line {number}: unknown type {kind!r}"
                )
            families[family] = {"type": kind, "samples": []}
            continue
        if line.startswith("#"):
            continue
        match = _OM_SAMPLE_RE.match(line)
        if match is None:
            raise OpenMetricsError(f"line {number}: unparseable sample {line!r}")
        name = match.group("name")
        family, suffix = name, ""
        for candidate_suffix in ("_total", "_bucket", "_count", "_sum"):
            base = name[: -len(candidate_suffix)]
            if name.endswith(candidate_suffix) and base in families:
                family, suffix = base, candidate_suffix
                break
        if family not in families:
            raise OpenMetricsError(
                f"line {number}: sample {name!r} has no preceding TYPE"
            )
        kind = families[family]["type"]
        expected = {
            "counter": ("_total",),
            "gauge": ("",),
            "histogram": ("_bucket", "_count", "_sum"),
        }[kind]
        if suffix not in expected:
            raise OpenMetricsError(
                f"line {number}: sample {name!r} is not a valid {kind} "
                f"sample for family {family!r}"
            )
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise OpenMetricsError(
                f"line {number}: bad sample value {raw_value!r}"
            ) from None
        label_block = match.group("labels") or ""
        families[family]["samples"].append((name, label_block, value))
        if suffix == "_bucket":
            pairs = dict(_om_label_pairs(label_block))
            le = pairs.pop("le", None)
            if le is None:
                raise OpenMetricsError(
                    f"line {number}: histogram bucket without le label"
                )
            series = family + "|" + ",".join(
                f"{k}={v}" for k, v in sorted(pairs.items())
            )
            series_buckets = buckets.setdefault(series, [])
            if series_buckets and series_buckets[-1][1] > value:
                raise OpenMetricsError(
                    f"line {number}: non-cumulative bucket counts for "
                    f"{family!r}"
                )
            series_buckets.append((le, value))
        elif suffix == "_count":
            pairs = dict(_om_label_pairs(label_block))
            series = family + "|" + ",".join(
                f"{k}={v}" for k, v in sorted(pairs.items())
            )
            counts[series] = value
    for series, series_buckets in buckets.items():
        family = series.split("|", 1)[0]
        if series_buckets[-1][0] != "+Inf":
            raise OpenMetricsError(
                f"histogram {family!r} is missing the +Inf bucket"
            )
        if series in counts and series_buckets[-1][1] != counts[series]:
            raise OpenMetricsError(
                f"histogram {family!r}: +Inf bucket does not equal _count"
            )
    return families



