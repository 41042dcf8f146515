"""Declarative SLOs evaluated deterministically over the run store.

A spec is a small JSON document (schema :data:`SLO_SCHEMA`) naming the
run-kind it governs and a list of objectives; :func:`evaluate_slo` runs
it against stored :class:`~repro.obs.store.RunRecord` documents and
produces an :class:`SLOReport` whose serialized form is **timestamp-free
and byte-identical** for identical inputs — the CI smoke job ``cmp``\\ s
two same-seed evaluations.

Objective types
---------------

``ratio``
    Fraction of records whose boolean label (``labels[label]``, e.g.
    ``met_deadline``) is true, among records carrying the label at all.
    ``objective`` is the minimum acceptable fraction, in ``[0, 1)`` so
    the error budget ``1 - objective`` is never empty.  Burn is the
    fraction of that budget consumed: ``(1 - value) / (1 - objective)``.
``latency``
    A percentile read from a named histogram merged across the records
    (:func:`~repro.obs.store.merged_histogram` +
    :func:`~repro.obs.store.histogram_percentile`).  ``threshold`` is
    the maximum acceptable value; burn is ``value / threshold``.
``cost``
    Sum of a scalar metric (counter first, then gauge) across records.
    ``budget`` is the allowed total; burn is ``value / budget``.

For every type **burn > 1 is exactly the violation condition** — the
``slo`` fuzz oracle replays that equivalence.  An objective with no
matching data passes vacuously with ``no_data`` set: an empty window has
spent none of its error budget, and a missing metric is a coverage gap
for the spec author to see, not a paging event.

Error-budget burn windows
-------------------------

``window`` splits the filtered records into consecutive chunks of that
many records (the last chunk may be short); each objective reports its
burn per window, which :meth:`SLOReport.render` draws as a sparkline.  The
windows always partition the record list — another oracle-checked
invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .report import sparkline
from .store import (
    EmptyHistogramError,
    RunRecord,
    filter_runs,
    histogram_percentile,
    merged_histogram,
    metric_value,
)

__all__ = [
    "SLO_SCHEMA",
    "OBJECTIVE_TYPES",
    "SLOError",
    "SLOSpecError",
    "SLOObjective",
    "SLOSpec",
    "ObjectiveResult",
    "SLOReport",
    "parse_slo_spec",
    "load_slo_spec",
    "evaluate_slo",
]

#: Schema tag every spec document must carry.
SLO_SCHEMA = "repro-slo/1"

#: Recognized objective types.
OBJECTIVE_TYPES = ("ratio", "latency", "cost")


class SLOError(Exception):
    """Base class for SLO-engine failures."""


class SLOSpecError(SLOError):
    """The spec document is malformed (named error, never a KeyError)."""


@dataclass(frozen=True)
class SLOObjective:
    """One validated objective from a spec document."""

    name: str
    type: str
    #: ``ratio``: the boolean record label to read.
    label: Optional[str] = None
    #: ``latency``/``cost``: the histogram / scalar metric to read.
    metric: Optional[str] = None
    #: ``ratio``: minimum acceptable fraction, in ``[0, 1)``.
    objective: Optional[float] = None
    #: ``latency``: which percentile to read (0..100].
    percentile: Optional[float] = None
    #: ``latency``: maximum acceptable percentile value (> 0).
    threshold: Optional[float] = None
    #: ``cost``: allowed metric total (> 0).
    budget: Optional[float] = None

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"name": self.name, "type": self.type}
        for key in (
            "label", "metric", "objective", "percentile", "threshold",
            "budget",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class SLOSpec:
    """One validated spec: a run-kind filter plus objectives."""

    name: str
    kind: str
    objectives: Tuple[SLOObjective, ...]

    def to_dict(self) -> dict:
        return {
            "schema": SLO_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "objectives": [o.to_dict() for o in self.objectives],
        }


def _require(doc: dict, key: str, where: str):
    if key not in doc:
        raise SLOSpecError(f"{where} is missing required field {key!r}")
    return doc[key]


def _parse_objective(doc: dict, index: int) -> SLOObjective:
    where = f"objective #{index}"
    if not isinstance(doc, dict):
        raise SLOSpecError(f"{where} must be an object, got {type(doc).__name__}")
    name = str(_require(doc, "name", where))
    where = f"objective {name!r}"
    otype = str(_require(doc, "type", where))
    if otype not in OBJECTIVE_TYPES:
        raise SLOSpecError(
            f"{where} has unknown type {otype!r}; known: "
            f"{', '.join(OBJECTIVE_TYPES)}"
        )
    known = {
        "name", "type", "label", "metric", "objective", "percentile",
        "threshold", "budget",
    }
    extra = sorted(set(doc) - known)
    if extra:
        raise SLOSpecError(f"{where} has unknown fields: {', '.join(extra)}")
    if otype == "ratio":
        label = str(_require(doc, "label", where))
        objective = float(_require(doc, "objective", where))
        if not 0.0 <= objective < 1.0:
            raise SLOSpecError(
                f"{where}: ratio objective must be in [0, 1) so the error "
                f"budget 1 - objective is non-empty, got {objective!r}"
            )
        return SLOObjective(
            name=name, type=otype, label=label, objective=objective
        )
    if otype == "latency":
        metric = str(_require(doc, "metric", where))
        percentile = float(doc.get("percentile", 99.0))
        if not 0.0 < percentile <= 100.0:
            raise SLOSpecError(
                f"{where}: percentile must be in (0, 100], got {percentile!r}"
            )
        threshold = float(_require(doc, "threshold", where))
        if threshold <= 0.0:
            raise SLOSpecError(
                f"{where}: threshold must be positive, got {threshold!r}"
            )
        return SLOObjective(
            name=name,
            type=otype,
            metric=metric,
            percentile=percentile,
            threshold=threshold,
        )
    # cost
    metric = str(_require(doc, "metric", where))
    budget = float(_require(doc, "budget", where))
    if budget <= 0.0:
        raise SLOSpecError(
            f"{where}: budget must be positive, got {budget!r}"
        )
    return SLOObjective(name=name, type=otype, metric=metric, budget=budget)


def parse_slo_spec(doc: dict) -> SLOSpec:
    """Validate one spec document; raises :class:`SLOSpecError`."""
    if not isinstance(doc, dict):
        raise SLOSpecError(
            f"SLO spec must be a JSON object, got {type(doc).__name__}"
        )
    schema = doc.get("schema")
    if schema != SLO_SCHEMA:
        raise SLOSpecError(
            f"SLO spec schema mismatch: expected {SLO_SCHEMA!r}, got "
            f"{schema!r}"
        )
    name = str(_require(doc, "name", "SLO spec"))
    kind = str(_require(doc, "kind", "SLO spec"))
    raw = _require(doc, "objectives", "SLO spec")
    if not isinstance(raw, list) or not raw:
        raise SLOSpecError("SLO spec objectives must be a non-empty list")
    objectives = tuple(
        _parse_objective(item, index) for index, item in enumerate(raw)
    )
    names = [o.name for o in objectives]
    if len(set(names)) != len(names):
        raise SLOSpecError("SLO spec objective names must be unique")
    return SLOSpec(name=name, kind=kind, objectives=objectives)


def load_slo_spec(path: str) -> SLOSpec:
    """Load and validate a spec file; raises :class:`SLOSpecError`."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SLOSpecError(f"cannot read SLO spec {path}: {exc}") from None
    except ValueError as exc:
        raise SLOSpecError(
            f"SLO spec {path} is not valid JSON: {exc}"
        ) from None
    return parse_slo_spec(doc)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ObjectiveResult:
    """One objective's verdict over the whole record window."""

    name: str
    type: str
    #: Measured value (ratio, percentile, or metric total); ``None`` when
    #: no record carried the data.
    value: Optional[float]
    #: The spec's acceptable bound (objective/threshold/budget).
    target: float
    #: Error-budget burn; ``burn > 1`` is exactly "violated".
    burn: Optional[float]
    passed: bool
    no_data: bool
    #: Burn per record window (empty when ``window`` was not requested).
    windows: Tuple[Optional[float], ...] = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "type": self.type,
            "value": self.value,
            "target": self.target,
            "burn": self.burn,
            "passed": self.passed,
            "no_data": self.no_data,
            "windows": list(self.windows),
        }


@dataclass(frozen=True)
class SLOReport:
    """Deterministic evaluation document for one spec over one store view.

    Contains no timestamps and no machine state: identical records in,
    identical bytes out (:meth:`to_json`).
    """

    spec: SLOSpec
    records: int
    window: int
    results: Tuple[ObjectiveResult, ...]

    @property
    def violated(self) -> bool:
        return any(not r.passed for r in self.results)

    def to_dict(self) -> dict:
        return {
            "schema": "repro-slo-report/1",
            "spec": self.spec.to_dict(),
            "records": self.records,
            "window": self.window,
            "violated": self.violated,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def render(self) -> List[str]:
        """Human-readable evaluation lines (also byte-deterministic)."""
        lines = [
            f"SLO {self.spec.name!r} over {self.records} {self.spec.kind!r} "
            f"record(s): {'VIOLATED' if self.violated else 'ok'}"
        ]
        for r in self.results:
            verdict = "pass" if r.passed else "FAIL"
            if r.no_data:
                verdict = "pass (no data)"
            value = "-" if r.value is None else f"{r.value:.6g}"
            burn = "-" if r.burn is None else f"{r.burn:.3f}"
            line = (
                f"  [{verdict:>14s}] {r.name}: {r.type} value={value} "
                f"target={r.target:.6g} burn={burn}"
            )
            if r.windows:
                # Scaled so burn=1 is the top block: a full-height bar
                # means the window ate its whole budget.
                line += f" {sparkline(r.windows, lo=0.0, hi=1.0)}"
            lines.append(line)
        return lines


def _eval_ratio(
    objective: SLOObjective, records: Sequence[RunRecord]
) -> Tuple[Optional[float], Optional[float]]:
    hits = 0
    covered = 0
    for record in records:
        flag = record.labels.get(objective.label)
        if flag is None:
            continue
        covered += 1
        if bool(flag):
            hits += 1
    if covered == 0:
        return None, None
    value = hits / covered
    return value, (1.0 - value) / (1.0 - objective.objective)


def _eval_latency(
    objective: SLOObjective, records: Sequence[RunRecord]
) -> Tuple[Optional[float], Optional[float]]:
    hist = merged_histogram(records, objective.metric)
    if hist is None:
        return None, None
    try:
        value = histogram_percentile(hist, objective.percentile)
    except EmptyHistogramError:
        return None, None
    return value, value / objective.threshold


def _eval_cost(
    objective: SLOObjective, records: Sequence[RunRecord]
) -> Tuple[Optional[float], Optional[float]]:
    total = 0.0
    covered = 0
    for record in records:
        value = metric_value(record, objective.metric)
        if value is None:
            continue
        covered += 1
        total += value
    if covered == 0:
        return None, None
    return total, total / objective.budget


_EVALUATORS = {
    "ratio": _eval_ratio,
    "latency": _eval_latency,
    "cost": _eval_cost,
}


def evaluate_slo(
    spec: SLOSpec,
    runs: Sequence[RunRecord],
    rev: Optional[str] = None,
    window: int = 0,
) -> SLOReport:
    """Evaluate ``spec`` over ``runs`` (filtered to the spec's kind).

    ``window > 0`` additionally reports each objective's burn over
    consecutive chunks of ``window`` records.  Pure function of its
    inputs — no clocks, no environment.
    """
    if window < 0:
        raise SLOError(f"window must be >= 0, got {window}")
    records = filter_runs(runs, kinds=[spec.kind], rev=rev)
    chunks: List[List[RunRecord]] = []
    if window > 0:
        for start in range(0, len(records), window):
            chunks.append(records[start:start + window])
    results = []
    for objective in spec.objectives:
        evaluator = _EVALUATORS[objective.type]
        value, burn = evaluator(objective, records)
        target = (
            objective.objective
            if objective.type == "ratio"
            else objective.threshold
            if objective.type == "latency"
            else objective.budget
        )
        window_burns = tuple(
            evaluator(objective, chunk)[1] for chunk in chunks
        )
        results.append(
            ObjectiveResult(
                name=objective.name,
                type=objective.type,
                value=value,
                target=float(target),
                burn=burn,
                passed=(burn is None or burn <= 1.0),
                no_data=(burn is None),
                windows=window_burns,
            )
        )
    return SLOReport(
        spec=spec,
        records=len(records),
        window=window,
        results=tuple(results),
    )
