"""Job model: requests, lifecycle states, and the cooperative context.

A :class:`JobRequest` describes *what* to run (pipeline kind, design,
scale, seeds, priority); a :class:`Job` is one admitted request moving
through the lifecycle::

    queued -> running -> done | failed | cancelled | timed_out
    queued -> cancelled                      (cancelled before pickup)

Transitions are validated — an illegal edge raises ``ValueError`` — and
every transition is appended to ``Job.history`` with the service clock's
timestamp, so a job's full lifecycle is replayable.  Terminal jobs are
persisted through the existing :mod:`repro.obs.store` run store
(:func:`job_to_run`), which is how the regression dashboard sees
per-job billing.

:class:`JobContext` is the cooperative cancellation/timeout surface:
runners call :meth:`JobContext.checkpoint` between pipeline stages, and
the pool turns the raised :class:`~repro.service.errors.JobCancelled` /
:class:`~repro.service.errors.JobTimeout` into terminal states that
always release the worker slot.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..obs.store import RunRecord
from .errors import InvalidRequestError, JobCancelled, JobEvicted, JobTimeout

__all__ = [
    "JOB_KINDS",
    "JobState",
    "TERMINAL_STATES",
    "JobRequest",
    "Job",
    "JobContext",
    "job_to_run",
]

#: Pipeline kinds the default runner understands (see ``runners.py``).
JOB_KINDS = ("flow", "plan", "execute", "pipeline", "sleep", "fleet")


class JobState(enum.Enum):
    """Lifecycle states; values are the wire/log spelling."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMED_OUT = "timed_out"


#: States a job never leaves.
TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
)

#: Legal lifecycle edges.
_TRANSITIONS: Dict[JobState, frozenset] = {
    JobState.QUEUED: frozenset({JobState.RUNNING, JobState.CANCELLED}),
    JobState.RUNNING: frozenset(
        {JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.TIMED_OUT}
    ),
}


@dataclass(frozen=True)
class JobRequest:
    """One pipeline request as a client would submit it.

    ``priority`` is higher-wins; ties break FIFO on admission order.
    ``seed`` seeds the job's own execution (fault draws, GCN init);
    ``flow_seed`` seeds the characterization flow so jobs can share the
    warm artifact cache.  ``timeout_seconds`` is measured on the service
    clock and enforced at runner checkpoints (cooperative).
    """

    kind: str = "execute"
    design: str = "ctrl"
    scale: float = 0.3
    seed: int = 0
    flow_seed: int = 0
    priority: int = 0
    client: str = "default"
    timeout_seconds: Optional[float] = None
    params: Dict[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        """Raise :class:`InvalidRequestError` on a malformed request."""
        if self.kind not in JOB_KINDS:
            raise InvalidRequestError(
                f"unknown job kind {self.kind!r}; known: {', '.join(JOB_KINDS)}",
                kind=self.kind,
            )
        if self.scale <= 0:
            raise InvalidRequestError(
                f"scale must be positive, got {self.scale!r}", scale=self.scale
            )
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise InvalidRequestError(
                f"timeout_seconds must be positive, got "
                f"{self.timeout_seconds!r}",
                timeout_seconds=self.timeout_seconds,
            )
        if not self.client:
            raise InvalidRequestError("client must be non-empty")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "design": self.design,
            "scale": self.scale,
            "seed": self.seed,
            "flow_seed": self.flow_seed,
            "priority": self.priority,
            "client": self.client,
            "timeout_seconds": self.timeout_seconds,
            "params": {k: self.params[k] for k in sorted(self.params)},
        }


@dataclass
class Job:
    """One admitted request and everything its execution produced."""

    job_id: str
    request: JobRequest
    seq: int
    state: JobState = JobState.QUEUED
    history: List[Tuple[str, float]] = field(default_factory=list)
    result: Optional[dict] = None
    error: Optional[dict] = None
    worker: Optional[int] = None
    cancel_requested: bool = False
    #: Reason string set when an *external* event (AZ reclaim, storm)
    #: revokes this job's capacity; checkpoints then raise
    #: :class:`~repro.service.errors.JobEvicted` instead of plain
    #: :class:`JobCancelled`.
    external_cancel: Optional[str] = None
    #: How many times this request has been requeued after evictions.
    requeues: int = 0
    #: Job id of the evicted incarnation this job re-runs, if any.
    requeue_of: Optional[str] = None
    #: Deterministic end-to-end trace id minted by the service at
    #: admission (:func:`repro.obs.spans.mint_trace_id`); every span the
    #: job's execution opens — service, planner, executor — is
    #: stitched under it.  Requeued incarnations get fresh trace ids.
    trace_id: Optional[str] = None
    #: Per-job metric snapshot (``MetricsSnapshot.to_dict()``), recorded
    #: by the pool in inline mode — the multi-job billing oracle compares
    #: these counters against the job's own execution trace.
    metrics: Dict[str, dict] = field(default_factory=dict)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def transition(self, state: JobState, time: float) -> None:
        """Move to ``state`` at service-clock ``time``; validates the edge."""
        allowed = _TRANSITIONS.get(self.state, frozenset())
        if state not in allowed:
            raise ValueError(
                f"job {self.job_id}: illegal transition "
                f"{self.state.value} -> {state.value}"
            )
        self.state = state
        self.history.append((state.value, time))

    def to_public_dict(self) -> dict:
        """The client-facing job document (stable keys, JSON-safe)."""
        return {
            "job_id": self.job_id,
            "state": self.state.value,
            "request": self.request.to_dict(),
            "history": [list(edge) for edge in self.history],
            "worker": self.worker,
            "result": self.result,
            "error": self.error,
        }


class JobContext:
    """Cooperative cancellation/timeout handle passed to every runner.

    Runners call :meth:`checkpoint` between pipeline stages; it raises
    :class:`JobCancelled` once :meth:`request_cancel` has been called and
    :class:`JobTimeout` once the service clock passes the job's deadline.
    Deterministic services inject a tick clock, so timeout behaviour is
    replayable.
    """

    def __init__(
        self,
        job: Job,
        clock: Callable[[], float],
        started: float,
        timeout_seconds: Optional[float] = None,
    ):
        self.job = job
        self.clock = clock
        self.started = started
        self.timeout_seconds = timeout_seconds

    @property
    def elapsed(self) -> float:
        return self.clock() - self.started

    def checkpoint(self) -> None:
        """Raise if the job was evicted, cancelled, or past its deadline.

        Eviction outranks a client cancel: an external capacity loss is
        the stronger fact and carries the forensic/requeue semantics.
        """
        if self.job.external_cancel is not None:
            raise JobEvicted(self.job.job_id, self.job.external_cancel)
        if self.job.cancel_requested:
            raise JobCancelled(self.job.job_id)
        if (
            self.timeout_seconds is not None
            and self.elapsed > self.timeout_seconds
        ):
            raise JobTimeout(self.job.job_id)


def job_to_run(
    job: Job,
    rev: str,
    timestamp_utc: str,
    attribution: Optional[dict] = None,
) -> RunRecord:
    """Convert one terminal job into a ``repro-runs/1`` store record.

    The record's ``kind`` is ``service.job`` and its labels carry the
    lifecycle (state, priority, client, pipeline kind, history), so the
    dashboard can group and drift-check per-job billing counters the
    same way it gates executor runs.  ``attribution`` (an
    :meth:`repro.obs.attrib.Attribution.to_dict` document) rides along in
    the labels when the caller computed one, and jobs that executed a
    plan surface their deadline verdict as ``labels["met_deadline"]`` —
    the field the SLO engine's deadline-hit-rate objective reads.
    """
    if not job.terminal:
        raise ValueError(f"job {job.job_id} is not terminal ({job.state.value})")
    labels: Dict[str, object] = {
        "job_id": job.job_id,
        "state": job.state.value,
        "priority": job.request.priority,
        "client": job.request.client,
        "job_kind": job.request.kind,
        "design": job.request.design,
        "history": [list(edge) for edge in job.history],
    }
    if job.trace_id is not None:
        labels["trace_id"] = job.trace_id
    if attribution is not None:
        labels["attrib"] = attribution
    result = job.result if isinstance(job.result, dict) else {}
    met = result.get("met_deadline")
    if met is None and isinstance(result.get("execution"), dict):
        met = result["execution"].get("met_deadline")
    if met is not None:
        labels["met_deadline"] = bool(met)
    if job.error is not None:
        labels["error"] = job.error
    if job.external_cancel is not None:
        labels["evicted"] = job.external_cancel
    if job.requeues:
        labels["requeues"] = job.requeues
    if job.requeue_of is not None:
        labels["requeue_of"] = job.requeue_of
    return RunRecord(
        kind="service.job",
        rev=rev,
        seed=job.request.seed,
        timestamp_utc=timestamp_utc,
        scale=job.request.scale,
        labels=labels,
        metrics=dict(job.metrics),
    )
