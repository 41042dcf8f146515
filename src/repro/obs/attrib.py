"""Critical-path latency attribution over stitched job traces.

Answers the operator's question the raw span tree cannot: *where did
this job's end-to-end latency actually go?*  :func:`attribute_job` walks
one job's stitched trace (every span carrying the job's ``trace_id``,
from the ``service.submit`` span through the executor's stage spans)
plus its lifecycle history and decomposes the end-to-end duration into
the fixed :data:`BUCKETS`:

``admission``
    The ``service.submit`` span — validation, admission control, the
    queued-edge bookkeeping.
``queue_wait``
    Admission end until the ``running`` transition (or until the
    terminal edge, for jobs cancelled while queued).
``planning``
    Non-``execute`` children of the ``service.job`` span —
    characterization flows, MCKP solves, fleet planning.
``execution``
    The executor's ``execute`` spans, *minus* the fault and checkpoint
    instants accounted below.
``fault_retry``
    Fault-handling instants inside the execute subtree (boot failures,
    backoff, preemptions, fallbacks, re-plans, ...), one clock tick each.
``checkpoint_transfer``
    Checkpoint instants (the name is kept so records keep their shape).
``dispatch``
    Everything the service spent *around* the runner — worker pickup,
    scoped-registry setup, the terminal-transition edge.  Computed as
    the exact residual, which is what makes the decomposition total.

**Exactness contract.**  Under a deterministic service (shared
:class:`~repro.obs.spans.TickClock` between the service clock and the
tracer, inline pool), every timestamp is an integer multiple of the tick
step, so every bucket is a difference of exactly-representable floats
and the bucket sum equals the end-to-end duration **bit-for-bit** —
``sum(buckets) == end - start`` with ``==``, no tolerance.  The
``attrib`` fuzz oracle replays exactly this property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .spans import Span, TickClock

__all__ = [
    "BUCKETS",
    "FAULT_EVENTS",
    "TRANSFER_EVENTS",
    "AttributionError",
    "Attribution",
    "attribute_job",
    "attribute_session",
    "attribution_violations",
]

#: Bucket names, in canonical (and rendering) order.
BUCKETS = (
    "admission",
    "queue_wait",
    "planning",
    "execution",
    "fault_retry",
    "checkpoint_transfer",
    "dispatch",
)

#: Span-event names that count as fault/retry overhead.  These are the
#: instants the executor emits while *handling* a fault rather than
#: making forward progress.
FAULT_EVENTS = frozenset(
    {
        "boot_failure",
        "api_error",
        "stage_abort",
        "backoff",
        "straggler",
        "preemption",
        "timeout",
        "fallback",
        "replan",
        "flow_fail",
    }
)

#: Span-event names that count as checkpoint overhead (the bucket keeps
#: its ``checkpoint_transfer`` name so attribution records keep their shape).
TRANSFER_EVENTS = frozenset({"checkpoint"})


class AttributionError(ValueError):
    """The job's trace/history cannot support an exact decomposition."""


@dataclass(frozen=True)
class Attribution:
    """One job's exact latency decomposition (``sum(buckets) == total``)."""

    job_id: str
    trace_id: Optional[str]
    start: float
    end: float
    buckets: Tuple[Tuple[str, float], ...]

    @property
    def total(self) -> float:
        """End-to-end duration; bit-for-bit equal to the bucket sum."""
        return self.end - self.start

    def bucket(self, name: str) -> float:
        for key, value in self.buckets:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        """JSON document in canonical bucket order (byte-stable)."""
        return {
            "job_id": self.job_id,
            "trace_id": self.trace_id,
            "start": self.start,
            "end": self.end,
            "total": self.total,
            "buckets": {key: value for key, value in self.buckets},
        }


def _descendants(spans: Sequence[Span], root: Span) -> List[Span]:
    """``root`` plus every transitive child present in ``spans``."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append(span)
    out: List[Span] = []
    frontier = [root]
    while frontier:
        span = frontier.pop()
        out.append(span)
        frontier.extend(children.get(span.span_id, []))
    return out


def attribute_job(
    job, spans: Sequence[Span], step: float = 1.0
) -> Attribution:
    """Decompose one terminal job's end-to-end latency into buckets.

    ``spans`` may be the tracer's full span list; only spans carrying
    ``job.trace_id`` participate.  ``step`` is the tick-clock step (each
    span event consumed exactly one clock call, i.e. ``step`` seconds).

    The decomposition is structural, never heuristic: interval buckets
    come from span boundaries and history edges, event buckets from
    classified instant counts, and ``dispatch`` is the exact residual —
    so the bucket sum always reproduces ``end - start``.  Requeued
    incarnations are separate jobs with separate traces.
    """
    if not job.history:
        raise AttributionError(f"job {job.job_id} has no lifecycle history")
    if not job.terminal:
        raise AttributionError(
            f"job {job.job_id} is not terminal ({job.state.value})"
        )
    trace = [s for s in spans if job.trace_id is not None
             and s.trace_id == job.trace_id]
    for span in trace:
        if not span.finished:
            raise AttributionError(
                f"job {job.job_id}: span {span.name!r} never finished"
            )

    queued_time = job.history[0][1]
    end = job.history[-1][1]
    running_time = next(
        (t for state, t in job.history if state == "running"), None
    )
    submit = next((s for s in trace if s.name == "service.submit"), None)
    job_span = next((s for s in trace if s.name == "service.job"), None)

    # Requeued incarnations (and disabled tracers) have no submit span:
    # their timeline starts at the queued edge with zero admission cost.
    start = submit.start if submit is not None else queued_time
    admission = submit.duration if submit is not None else 0.0
    admitted_at = submit.end if submit is not None else queued_time

    values: Dict[str, float] = {key: 0.0 for key in BUCKETS}
    values["admission"] = admission
    if running_time is None:
        # Cancelled while queued: it waited its whole life.
        values["queue_wait"] = end - admitted_at
    else:
        values["queue_wait"] = running_time - admitted_at
        execute_total = 0.0
        if job_span is not None:
            for child in trace:
                if child.parent_id != job_span.span_id:
                    continue
                if child.name == "execute":
                    execute_total += child.duration
                    for span in _descendants(trace, child):
                        for event in span.events:
                            if event.name in FAULT_EVENTS:
                                values["fault_retry"] += step
                            elif event.name in TRANSFER_EVENTS:
                                values["checkpoint_transfer"] += step
                else:
                    values["planning"] += child.duration
        values["execution"] = (
            execute_total
            - values["fault_retry"]
            - values["checkpoint_transfer"]
        )
        values["dispatch"] = (
            (end - running_time) - values["planning"] - execute_total
        )
    buckets = tuple((key, values[key]) for key in BUCKETS)
    return Attribution(
        job_id=job.job_id,
        trace_id=job.trace_id,
        start=start,
        end=end,
        buckets=buckets,
    )


def attribute_session(service) -> List[Attribution]:
    """Attribution for every terminal job of one service, terminal order.

    ``service`` is an :class:`~repro.service.api.EDAService` (duck-typed
    to avoid a package cycle: uses ``clock``, ``tracer``, ``jobs``,
    ``terminal_order``).  The exactness contract requires the
    deterministic configuration — a shared tick clock and an inline pool
    — which is the service's default.
    """
    clock = service.clock
    step = clock.step if isinstance(clock, TickClock) else 1.0
    spans = list(service.tracer.spans)
    by_trace: Dict[str, List[Span]] = {}
    for span in spans:
        if span.trace_id is not None:
            by_trace.setdefault(span.trace_id, []).append(span)
    out: List[Attribution] = []
    for job_id in service.terminal_order:
        job = service.jobs[job_id]
        out.append(
            attribute_job(job, by_trace.get(job.trace_id, []), step=step)
        )
    return out


def attribution_violations(service) -> List[str]:
    """Check the attribution invariants for one finished session.

    * one attribution per terminal job, in terminal order,
    * every bucket non-negative,
    * the bucket sum equals the end-to-end duration **bit-for-bit**
      (``==`` on floats, no epsilon) for every job,
    * jobs that never ran attribute nothing to planning/execution.

    Returns human-readable violation strings; ``[]`` when all hold.
    """
    out: List[str] = []
    try:
        attribs = attribute_session(service)
    except AttributionError as exc:
        return [f"attribution failed: {exc}"]
    if [a.job_id for a in attribs] != list(service.terminal_order):
        out.append("attribution order does not match terminal order")
    for a in attribs:
        total = a.total
        bucket_sum = 0.0
        for key, value in a.buckets:
            bucket_sum += value
            if value < 0.0:
                out.append(
                    f"{a.job_id}: bucket {key} is negative ({value!r})"
                )
        if bucket_sum != total:
            out.append(
                f"{a.job_id}: bucket sum {bucket_sum!r} != total {total!r}"
            )
        if a.end < a.start:
            out.append(f"{a.job_id}: end {a.end!r} before start {a.start!r}")
        job = service.jobs[a.job_id]
        ran = any(state == "running" for state, _ in job.history)
        if not ran:
            for key in ("planning", "execution", "fault_retry",
                        "checkpoint_transfer", "dispatch"):
                if a.bucket(key) != 0.0:
                    out.append(
                        f"{a.job_id}: never ran but {key} = "
                        f"{a.bucket(key)!r}"
                    )
    return out
