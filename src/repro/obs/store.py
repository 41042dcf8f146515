"""Append-only multi-run telemetry store (JSONL, schema-versioned).

The store answers "what has ``executor.billed_cost`` done over the last
twenty runs": every persisted run — service sessions and their jobs,
executor runs, or anything else — appends one JSON line to
``benchmarks/runs/runs.jsonl``, and :mod:`repro.obs.report` draws its
time series, percentile summaries, and regression flags from it.

Design points:

* **Append-only JSONL** — one self-contained document per line, so a
  crashed writer can at worst leave a truncated final line and readers
  never need locks.  Records carry their own ``schema`` tag
  (:data:`RUNS_SCHEMA`); a mismatch raises :class:`StoreSchemaError`
  (a named error, never a bare ``KeyError``), undecodable lines raise
  :class:`StoreCorruptError` with the line number.
* **Timestamps are passed in** — callers stamp records at the CLI
  boundary (one ``datetime.now(timezone.utc)`` per process), never in
  hot paths, so library code stays deterministic and replayable.
* **Percentiles without raw samples** — runs persist the log2-bin
  histograms from :mod:`repro.obs.metrics`; summaries merge bins across
  runs (:func:`merge_snapshots` algebra) and read percentiles off the
  bin edges, so the store stays O(runs), not O(observations).
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .metrics import (
    HistogramSnapshot,
    MetricsSnapshot,
    ZERO_BIN,
    bin_bounds,
    merge_snapshots,
    snapshot_from_dict,
)

__all__ = [
    "RUNS_SCHEMA",
    "DEFAULT_STORE_PATH",
    "StoreError",
    "StoreSchemaError",
    "StoreCorruptError",
    "EmptyHistogramError",
    "RunRecord",
    "RunStore",
    "git_rev",
    "filter_runs",
    "metric_value",
    "metric_names",
    "metric_series",
    "merged_histogram",
    "histogram_percentile",
    "percentile_summary",
]

#: Schema tag stamped into every stored run record.
RUNS_SCHEMA = "repro-runs/1"

#: Where the CLI commands append runs by default.
DEFAULT_STORE_PATH = os.path.join("benchmarks", "runs", "runs.jsonl")


def git_rev(default: str = "dev") -> str:
    """Short git revision of the working tree, or ``default``.

    The CLI stamps it as ``rev`` on every record it persists.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
    except (OSError, subprocess.TimeoutExpired):
        return default
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else default


class StoreError(Exception):
    """Base class for run-store failures."""


class StoreSchemaError(StoreError):
    """A stored record's schema tag does not match :data:`RUNS_SCHEMA`."""


class StoreCorruptError(StoreError):
    """A store line is not valid JSON or lacks required fields."""


class EmptyHistogramError(StoreError):
    """A percentile was requested from a histogram with zero observations.

    Raised instead of letting NaN fall out of the bin walk — callers that
    tolerate missing data (the report renderer, the SLO engine's no-data
    path) catch this by name.
    """


@dataclass(frozen=True)
class RunRecord:
    """One run's durable telemetry: metadata + metric/timing payloads.

    ``metrics`` is a :meth:`MetricsSnapshot.to_dict` document;
    ``timings`` maps span paths to wall-clock seconds (machine-
    dependent); ``labels`` carries free-form metadata (design, job
    state, scenario, ...).
    """

    kind: str
    rev: str
    seed: int
    timestamp_utc: str
    scale: float = 0.0
    labels: Dict[str, object] = field(default_factory=dict)
    metrics: Dict[str, dict] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema": RUNS_SCHEMA,
            "kind": self.kind,
            "rev": self.rev,
            "seed": self.seed,
            "timestamp_utc": self.timestamp_utc,
            "scale": self.scale,
            "labels": {k: self.labels[k] for k in sorted(self.labels)},
            "metrics": self.metrics,
            "timings": self.timings,
        }

    @classmethod
    def from_dict(cls, doc: dict, line: Optional[int] = None) -> "RunRecord":
        where = "" if line is None else f" (line {line})"
        schema = doc.get("schema")
        if schema != RUNS_SCHEMA:
            raise StoreSchemaError(
                f"run store schema mismatch{where}: expected "
                f"{RUNS_SCHEMA!r}, got {schema!r} — regenerate the store "
                f"or migrate the file"
            )
        missing = [
            key
            for key in ("kind", "rev", "seed", "timestamp_utc")
            if key not in doc
        ]
        if missing:
            raise StoreCorruptError(
                f"run record{where} is missing required fields: "
                f"{', '.join(missing)}"
            )
        return cls(
            kind=str(doc["kind"]),
            rev=str(doc["rev"]),
            seed=int(doc["seed"]),
            timestamp_utc=str(doc["timestamp_utc"]),
            scale=float(doc.get("scale", 0.0)),
            labels=dict(doc.get("labels", {})),
            metrics=dict(doc.get("metrics", {})),
            timings=dict(doc.get("timings", {})),
        )

    @property
    def snapshot(self) -> MetricsSnapshot:
        return snapshot_from_dict(self.metrics)


class RunStore:
    """Append-only JSONL store of :class:`RunRecord` documents."""

    def __init__(self, path: str = DEFAULT_STORE_PATH):
        self.path = path

    def append(self, record: RunRecord) -> None:
        """Append one record as a single JSON line (sorted keys)."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True))
            handle.write("\n")

    def load(self) -> List[RunRecord]:
        """All records, oldest first; ``[]`` when the file is absent."""
        if not os.path.exists(self.path):
            return []
        records: List[RunRecord] = []
        with open(self.path) as handle:
            for number, raw in enumerate(handle, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    doc = json.loads(raw)
                except ValueError as exc:
                    raise StoreCorruptError(
                        f"run store {self.path} line {number} is not valid "
                        f"JSON: {exc}"
                    ) from None
                if not isinstance(doc, dict):
                    raise StoreCorruptError(
                        f"run store {self.path} line {number} is not a "
                        f"JSON object"
                    )
                records.append(RunRecord.from_dict(doc, line=number))
        return records

    def __len__(self) -> int:
        return len(self.load())


# ----------------------------------------------------------------------
# Queries: time series and percentile summaries over stored runs
# ----------------------------------------------------------------------
def metric_value(record: RunRecord, name: str) -> Optional[float]:
    """The scalar value of ``name`` in one run (counter, then gauge)."""
    for section in ("counters", "gauges"):
        table = record.metrics.get(section, {})
        if name in table:
            return float(table[name])
    return None


def filter_runs(
    runs: Sequence[RunRecord],
    kinds: Optional[Sequence[str]] = None,
    rev: Optional[str] = None,
) -> List[RunRecord]:
    """Subset of ``runs`` matching the given kinds and/or revision.

    ``kinds`` matches exactly *or* by dotted prefix, so ``"service"``
    selects both ``service`` session records and ``service.job`` records
    (``repro report --kind service``).  ``None`` means no constraint.
    """
    out: List[RunRecord] = []
    for record in runs:
        if kinds is not None and not any(
            record.kind == k or record.kind.startswith(k + ".")
            for k in kinds
        ):
            continue
        if rev is not None and record.rev != rev:
            continue
        out.append(record)
    return out


def metric_names(runs: Sequence[RunRecord]) -> List[str]:
    """Sorted union of scalar metric names across ``runs``."""
    names = set()
    for record in runs:
        names.update(record.metrics.get("counters", {}))
        names.update(record.metrics.get("gauges", {}))
    return sorted(names)


def metric_series(
    runs: Sequence[RunRecord], name: str
) -> List[Tuple[RunRecord, float]]:
    """Per-run time series of one scalar metric, store order preserved."""
    out: List[Tuple[RunRecord, float]] = []
    for record in runs:
        value = metric_value(record, name)
        if value is not None:
            out.append((record, value))
    return out


def merged_histogram(
    runs: Sequence[RunRecord], name: str
) -> Optional[HistogramSnapshot]:
    """Union of one histogram across runs (fixed bins merge exactly)."""
    merged: Optional[MetricsSnapshot] = None
    for record in runs:
        if name not in record.metrics.get("histograms", {}):
            continue
        snap = record.snapshot
        merged = snap if merged is None else merge_snapshots(merged, snap)
    return None if merged is None else merged.histograms.get(name)


def histogram_percentile(hist: HistogramSnapshot, q: float) -> float:
    """Approximate percentile ``q`` (0..100) from log2-bin counts.

    Walks the sorted bins to the one holding the q-th observation and
    returns that bin's geometric midpoint, clamped to the histogram's
    observed min/max (so p0/p100 are exact).  The zero bin reports its
    true minimum (non-positive observations carry no spread).  An empty
    histogram (``count == 0``) raises :class:`EmptyHistogramError` — a
    percentile of nothing is a caller bug, not a NaN.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile must be in [0, 100]")
    if hist.count == 0:
        raise EmptyHistogramError(
            f"cannot take p{q:g} of an empty histogram"
        )
    if q == 0.0 and hist.min is not None:
        return float(hist.min)
    if q == 100.0 and hist.max is not None:
        return float(hist.max)
    target = max(1.0, math.ceil(q / 100.0 * hist.count))
    cumulative = 0
    for index, count in hist.bins:
        cumulative += count
        if cumulative >= target:
            if index == ZERO_BIN:
                return float(hist.min) if hist.min is not None else 0.0
            lo, hi = bin_bounds(index)
            if hist.min is not None:
                lo = max(lo, float(hist.min))
            if hist.max is not None and math.isfinite(hi):
                hi = min(hi, float(hist.max))
            elif hist.max is not None:
                hi = float(hist.max)
            if hi <= lo:
                return lo
            return math.sqrt(lo * hi) if lo > 0 else (lo + hi) / 2.0
    # Unreachable when bin counts sum to hist.count (a checked property).
    return float(hist.max) if hist.max is not None else float("nan")


def percentile_summary(
    runs: Sequence[RunRecord],
    name: str,
    percentiles: Sequence[float] = (50.0, 90.0, 99.0),
) -> Dict[str, float]:
    """``{"p50": ..., ...}`` for one histogram merged across runs.

    Returns ``{}`` when no run recorded the histogram *or* the merged
    histogram is empty — the summary never raises on missing data.
    """
    hist = merged_histogram(runs, name)
    if hist is None or hist.count == 0:
        return {}
    return {
        f"p{int(q) if float(q).is_integer() else q}": histogram_percentile(
            hist, q
        )
        for q in percentiles
    }
