"""Process-local metrics: counters, gauges, log-scale histograms.

No numpy, no background threads — a :class:`MetricsRegistry` is a dict of
named instruments, and a :class:`MetricsSnapshot` is an immutable copy
that supports ``==``, JSON export, and :func:`merge_snapshots`.  The
algebra the property tests assert:

* histogram bin counts always sum to the observation count,
* ``merge_snapshots(snap(a), snap(b)) == snap(a then b)`` for counters
  and histograms (sums) and gauges (last write wins).

Histogram bins are *fixed* powers of two: observation ``v > 0`` lands in
bin ``floor(log2(v))`` (i.e. ``[2**i, 2**(i+1))``), clamped to
``[MIN_BIN, MAX_BIN]``; non-positive observations land in
:data:`ZERO_BIN`.  Fixed bins make snapshots from different processes
mergeable without rebinning.

**Labels.** Instruments optionally carry a frozen, sorted label set
(``registry.counter("jobs", region="east", priority="high")``).  Labels
are encoded *into the instrument name* as a canonical
``name{key="value",...}`` suffix (keys sorted, values escaped), so the
snapshot/merge/serialization algebra above is untouched: a labeled
series is just another name, snapshots stay plain string-keyed dicts,
and byte-stability is inherited.  :func:`labeled_name` /
:func:`parse_labeled_name` convert between the two forms; the
OpenMetrics exporter in :mod:`repro.obs.export` re-parses them into
proper label sets on the wire.
"""

from __future__ import annotations

import contextvars
import math
import re
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "LabelError",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_snapshots",
    "snapshot_from_dict",
    "histogram_bin",
    "bin_bounds",
    "labeled_name",
    "parse_labeled_name",
    "get_metrics",
    "ZERO_BIN",
    "MIN_BIN",
    "MAX_BIN",
]

#: Bin index reserved for observations <= 0.
ZERO_BIN = -1025
#: Smallest/largest power-of-two exponent before clamping.
MIN_BIN = -64
MAX_BIN = 64


def histogram_bin(value: float) -> int:
    """Fixed log2 bin index for ``value`` (see module docstring)."""
    if value <= 0.0 or math.isnan(value):
        return ZERO_BIN
    if math.isinf(value):
        return MAX_BIN
    return min(max(int(math.floor(math.log2(value))), MIN_BIN), MAX_BIN)


def bin_bounds(index: int) -> Tuple[float, float]:
    """The ``[lo, hi)`` value range of one bin index."""
    if index == ZERO_BIN:
        return (float("-inf"), 0.0)
    lo = 2.0 ** index if index > MIN_BIN else 0.0
    hi = 2.0 ** (index + 1) if index < MAX_BIN else float("inf")
    return (lo, hi)


# ----------------------------------------------------------------------
# Labels (canonically encoded into the instrument name)
# ----------------------------------------------------------------------
class LabelError(ValueError):
    """A label key or encoded series name is malformed."""


_LABEL_KEY_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SERIES_RE = re.compile(r"^(?P<name>[^{}]+)\{(?P<labels>.*)\}$")
_LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _unescape_label_value(value: str) -> str:
    out = []
    it = iter(value)
    for ch in it:
        if ch != "\\":
            out.append(ch)
            continue
        nxt = next(it, "")
        out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
    return "".join(out)


def labeled_name(name: str, labels: Mapping[str, object]) -> str:
    """Canonical series key: ``name{k="v",...}`` with sorted keys.

    Sorting makes the encoding independent of keyword order, so
    ``counter("x", a=1, b=2)`` and ``counter("x", b=2, a=1)`` are the
    same series — the frozen-sorted-label-set contract.
    """
    if not labels:
        return name
    if "{" in name or "}" in name:
        raise LabelError(f"metric name {name!r} may not contain braces")
    for key in labels:
        if not _LABEL_KEY_RE.match(key):
            raise LabelError(f"invalid label key {key!r}")
    body = ",".join(
        f'{key}="{_escape_label_value(str(labels[key]))}"'
        for key in sorted(labels)
    )
    return f"{name}{{{body}}}"


def parse_labeled_name(series: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Inverse of :func:`labeled_name`: ``(base_name, sorted_label_pairs)``.

    Unlabeled names return an empty pair tuple.  Raises
    :class:`LabelError` when the label block does not re-serialize to the
    canonical form (unsorted keys, bad quoting, stray braces).
    """
    if "{" not in series:
        if "}" in series:
            raise LabelError(f"malformed series name {series!r}")
        return series, ()
    match = _SERIES_RE.match(series)
    if match is None:
        raise LabelError(f"malformed series name {series!r}")
    name, body = match.group("name"), match.group("labels")
    pairs: Dict[str, str] = {}
    pos = 0
    while pos < len(body):
        pair = _LABEL_PAIR_RE.match(body, pos)
        if pair is None:
            raise LabelError(f"malformed label block in {series!r}")
        pairs[pair.group(1)] = _unescape_label_value(pair.group(2))
        pos = pair.end()
        if pos < len(body):
            if body[pos] != ",":
                raise LabelError(f"malformed label block in {series!r}")
            pos += 1
    if labeled_name(name, pairs) != series:
        raise LabelError(f"non-canonical series name {series!r}")
    return name, tuple(sorted(pairs.items()))


class Counter:
    """Monotonically increasing sum."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value", "written")

    def __init__(self):
        self.value = 0.0
        self.written = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self.written = True


class Histogram:
    """Log2-binned distribution with count/sum/min/max."""

    __slots__ = ("bins", "count", "total", "min", "max")

    def __init__(self):
        self.bins: Dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        index = histogram_bin(value)
        self.bins[index] = self.bins.get(index, 0) + 1
        self.count += 1
        if math.isnan(value):
            # A NaN lands in ZERO_BIN and is counted, but must not touch
            # the moment fields: NaN propagates through += and poisons
            # min/max via always-false comparisons.
            return
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable histogram state; ``bins`` is sorted for stable equality."""

    count: int
    total: float
    min: Optional[float]
    max: Optional[float]
    bins: Tuple[Tuple[int, int], ...]

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "bins": {str(index): count for index, count in self.bins},
        }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Point-in-time copy of a registry (hashable-free but ``==``-able)."""

    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, HistogramSnapshot] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Sorted-key dict for JSON export (deterministic bytes)."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict()
                for k in sorted(self.histograms)
            },
        }


class MetricsRegistry:
    """Named instruments, get-or-create by kind.

    Instruments accept an optional label set as keyword arguments
    (``registry.counter("jobs", region="east")``); each distinct label
    combination is its own series, keyed by the canonical
    :func:`labeled_name` string.  A base name is bound to a single
    instrument kind across all of its label sets, so one OpenMetrics
    family never mixes types.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        # Base name -> instrument kind, enforced across label sets.
        self._kinds: Dict[str, str] = {}

    def _check_free(self, name: str, kind: str) -> None:
        base, _ = parse_labeled_name(name)
        bound = self._kinds.get(base)
        if bound is not None and bound != kind:
            raise ValueError(
                f"metric {base!r} already registered as a {bound}"
            )
        self._kinds[base] = kind

    def counter(self, name: str, **labels) -> Counter:
        name = labeled_name(name, labels)
        if name not in self._counters:
            self._check_free(name, "counter")
            self._counters[name] = Counter()
        return self._counters[name]

    def gauge(self, name: str, **labels) -> Gauge:
        name = labeled_name(name, labels)
        if name not in self._gauges:
            self._check_free(name, "gauge")
            self._gauges[name] = Gauge()
        return self._gauges[name]

    def histogram(self, name: str, **labels) -> Histogram:
        name = labeled_name(name, labels)
        if name not in self._histograms:
            self._check_free(name, "histogram")
            self._histograms[name] = Histogram()
        return self._histograms[name]

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            counters={k: c.value for k, c in self._counters.items()},
            gauges={
                k: g.value for k, g in self._gauges.items() if g.written
            },
            histograms={
                k: HistogramSnapshot(
                    count=h.count,
                    total=h.total,
                    min=h.min,
                    max=h.max,
                    bins=tuple(sorted(h.bins.items())),
                )
                for k, h in self._histograms.items()
            },
        )

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._kinds.clear()


def merge_snapshots(a: MetricsSnapshot, b: MetricsSnapshot) -> MetricsSnapshot:
    """Combine two snapshots as if their registries had been one.

    Counters and histograms add; gauges take ``b``'s value when it wrote
    one (last write wins, matching sequential registry semantics).

    The gauge rule is the pinned contract for conflicting series names —
    ``merge_snapshots(a, b)`` never raises on a gauge collision, it keeps
    ``b``'s value, and the operation is deliberately *not* commutative
    for gauges (it is for counters and histograms).  Labeled series make
    same-name collisions far more common (every shard exports
    ``up{region=...}``-style gauges), so merge order is part of the API:
    merge in observation order and the result matches one sequential
    registry byte-for-byte.
    """
    counters = dict(a.counters)
    for name, value in b.counters.items():
        counters[name] = counters.get(name, 0.0) + value
    gauges = dict(a.gauges)
    gauges.update(b.gauges)
    histograms = dict(a.histograms)
    for name, hb in b.histograms.items():
        ha = histograms.get(name)
        if ha is None:
            histograms[name] = hb
            continue
        bins: Dict[int, int] = dict(ha.bins)
        for index, count in hb.bins:
            bins[index] = bins.get(index, 0) + count
        histograms[name] = HistogramSnapshot(
            count=ha.count + hb.count,
            total=ha.total + hb.total,
            min=(
                hb.min
                if ha.min is None
                else ha.min if hb.min is None else min(ha.min, hb.min)
            ),
            max=(
                hb.max
                if ha.max is None
                else ha.max if hb.max is None else max(ha.max, hb.max)
            ),
            bins=tuple(sorted(bins.items())),
        )
    return MetricsSnapshot(
        counters=counters, gauges=gauges, histograms=histograms
    )


def snapshot_from_dict(doc: dict) -> MetricsSnapshot:
    """Inverse of :meth:`MetricsSnapshot.to_dict` (JSON round-trip).

    The run store persists snapshots as JSON; this rebuilds the typed
    form so stored runs can be merged and queried with the same algebra
    as live registries.
    """
    histograms: Dict[str, HistogramSnapshot] = {}
    for name, h in doc.get("histograms", {}).items():
        histograms[name] = HistogramSnapshot(
            count=int(h["count"]),
            total=float(h["total"]),
            min=h.get("min"),
            max=h.get("max"),
            bins=tuple(
                sorted((int(k), int(v)) for k, v in h.get("bins", {}).items())
            ),
        )
    return MetricsSnapshot(
        counters={k: float(v) for k, v in doc.get("counters", {}).items()},
        gauges={k: float(v) for k, v in doc.get("gauges", {}).items()},
        histograms=histograms,
    )


# ----------------------------------------------------------------------
# Ambient registry (always on; instruments are dict-lookup cheap).  The
# default is one process-wide registry; ``repro.obs.scoped`` sets a
# per-run or per-job one for the current context only.
# ----------------------------------------------------------------------
METRICS: contextvars.ContextVar[MetricsRegistry] = contextvars.ContextVar(
    "repro_metrics", default=MetricsRegistry()
)


def get_metrics() -> MetricsRegistry:
    """The ambient registry the instrumented modules report to."""
    return METRICS.get()
