"""The in-process EDA-flow service: submit/status/cancel + session driver.

:class:`EDAService` wires the pieces together — admission controller in
front of the priority queue, the asyncio worker pool behind it, a
dedicated tracer/registry pair so every request is span-wrapped and
every rejection counted.  ``submit``/``status``/``cancel`` are plain
synchronous methods (they never block); only *running* the pool needs an
event loop, so tests can drive scheduling explicitly while the CLI uses
:func:`run_session`.

Determinism contract (``deterministic=True``, the default): the service
clock is a shared :class:`~repro.obs.spans.TickClock`, the pool runs
``inline``, and :func:`run_session` admits the whole request list before
the first worker step runs — so for one seed the admission outcomes, the
completion order, the per-job billing totals, and the byte-level
:func:`session_log` are all identical across runs.  That is the
acceptance property the 100-job regression test replays twice.

Nothing here reads wall-clock time; timestamps enter only at the CLI
boundary (``repro serve`` stamps the run-store records it persists).
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import MetricsRegistry, Tracer, merge_snapshots
from ..obs.attrib import attribute_session
from ..obs.spans import TickClock, mint_trace_id
from ..obs.store import RunRecord
from .errors import JobNotFoundError, NotCancellableError, ServiceError
from .jobs import Job, JobContext, JobRequest, JobState, job_to_run
from .pool import WorkerPool
from .queue import AdmissionController, JobQueue, TokenBucket
from .runners import PipelineRunner

__all__ = [
    "ServiceConfig",
    "EDAService",
    "SessionResult",
    "run_session",
    "session_log",
    "seeded_job_mix",
]


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning knobs for one service instance.

    ``rate_capacity=None`` disables per-client rate limiting entirely;
    otherwise each client gets a token bucket with that burst capacity,
    refilled at ``rate_refill_per_second`` on the service clock.
    """

    workers: int = 2
    queue_depth: int = 64
    rate_capacity: Optional[float] = None
    rate_refill_per_second: float = 1.0
    mode: str = "inline"
    deterministic: bool = True
    crash_dir: Optional[str] = None
    rev: str = "dev"
    #: Automatically resubmit jobs cancelled by an external eviction
    #: (never jobs cancelled by the client), up to ``max_requeues``
    #: incarnations per original request.
    requeue_on_eviction: bool = True
    max_requeues: int = 1


class EDAService:
    """Admission + queue + pool behind a three-verb request API."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        runner: Optional[Callable[[Job, JobContext], dict]] = None,
    ):
        self.config = config if config is not None else ServiceConfig()
        self.clock: Callable[[], float] = (
            TickClock() if self.config.deterministic else _monotonic()
        )
        # The tracer shares the service clock: job history edges and span
        # boundaries interleave on one timeline, which is what makes the
        # critical-path attribution in repro.obs.attrib exact (bucket
        # sums equal end-to-end durations bit-for-bit under tick clocks).
        self.tracer = Tracer(
            clock=self.clock, deterministic=self.config.deterministic
        )
        self.registry = MetricsRegistry()
        self.queue = JobQueue(depth=self.config.queue_depth)
        limiter = (
            TokenBucket(
                self.config.rate_capacity,
                self.config.rate_refill_per_second,
                self.clock,
            )
            if self.config.rate_capacity is not None
            else None
        )
        self.admission = AdmissionController(self.queue, rate_limiter=limiter)
        self.runner = runner if runner is not None else PipelineRunner()
        self.pool = WorkerPool(
            queue=self.queue,
            runner=self._traced_runner,
            size=self.config.workers,
            clock=self.clock,
            mode=self.config.mode,
            crash_dir=self.config.crash_dir,
            on_terminal=self._on_terminal,
            tracer=self.tracer,
        )
        self.jobs: Dict[str, Job] = {}
        self.terminal_order: List[str] = []
        self._seq = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- request API ------------------------------------------------------

    def submit(self, request: JobRequest) -> dict:
        """Admit one request; returns the job document or raises a
        :class:`~repro.service.errors.ServiceError` rejection."""
        with self.tracer.span(
            "service.submit",
            client=request.client,
            kind=request.kind,
            priority=request.priority,
        ) as span:
            try:
                request.validate()
                job = Job(
                    job_id=f"job-{self._seq:04d}",
                    request=request,
                    seq=self._seq,
                )
                self.admission.admit(job)
            except ServiceError as exc:
                span.set_tag("rejected", exc.code)
                self.registry.counter(f"service.rejected.{exc.code}").inc()
                raise
            self._seq += 1
            self.jobs[job.job_id] = job
            # One trace per admitted job, minted deterministically from
            # the request seed and the admission sequence number.  The
            # submit span joins it retroactively (the id exists only
            # once admission succeeded — rejected submits stay unstitched).
            job.trace_id = mint_trace_id("service", job.request.seed, job.seq)
            span.trace_id = job.trace_id
            span.set_tag("trace_id", job.trace_id)
            # Jobs are born QUEUED; record the admission edge directly.
            job.history.append((JobState.QUEUED.value, self.clock()))
            self.registry.counter("service.admitted").inc()
            self.registry.gauge("service.queue_depth").set(len(self.queue))
            span.set_tag("job_id", job.job_id)
            self._idle.clear()
            self.pool.notify()
            return job.to_public_dict()

    def status(self, job_id: str) -> dict:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}", job_id=job_id)
        return job.to_public_dict()

    def cancel(self, job_id: str) -> dict:
        """Cancel a queued job immediately, or flag a running one.

        Running jobs observe the flag at their next cooperative
        checkpoint; terminal jobs raise
        :class:`~repro.service.errors.NotCancellableError`.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}", job_id=job_id)
        if job.terminal:
            raise NotCancellableError(
                f"job {job_id} is already {job.state.value}",
                job_id=job_id,
                state=job.state.value,
            )
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            # Never reaches a worker: the queue drops it lazily at pop.
            job.transition(JobState.CANCELLED, self.clock())
            self._on_terminal(job)
        self.registry.counter("service.cancel_requests").inc()
        return job.to_public_dict()

    def evict(self, job_id: str, reason: str = "external") -> dict:
        """Cancel a job because something *outside* the service took its
        capacity (an AZ reclaim, a spot storm striking its zone).

        Queued jobs go terminal immediately; running jobs observe the
        eviction at their next cooperative checkpoint as
        :class:`~repro.service.errors.JobEvicted`.  Either way the job
        lands in ``cancelled`` and — when ``requeue_on_eviction`` is set
        and the budget allows — a fresh incarnation of the request is
        admitted automatically.
        """
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFoundError(f"no such job: {job_id}", job_id=job_id)
        if job.terminal:
            raise NotCancellableError(
                f"job {job_id} is already {job.state.value}",
                job_id=job_id,
                state=job.state.value,
            )
        job.external_cancel = reason
        if job.state is JobState.QUEUED:
            job.transition(JobState.CANCELLED, self.clock())
            self._on_terminal(job)
        return job.to_public_dict()

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Start the worker pool (requires a running event loop)."""
        # Python 3.9 binds an asyncio.Event to the loop current at
        # construction; rebuild it on the loop that will await join().
        self._idle = asyncio.Event()
        if self.all_terminal:
            self._idle.set()
        self.pool.start()

    async def drain(self) -> None:
        """Stop admission, run the backlog dry, join all workers."""
        self.admission.draining = True
        await self.pool.drain()

    async def shutdown(self) -> List[Job]:
        """Stop admission, cancel the backlog, join all workers."""
        self.admission.draining = True
        return await self.pool.shutdown()

    async def join(self) -> None:
        """Wait until every admitted job is terminal (pool keeps running)."""
        await self._idle.wait()

    # -- introspection ----------------------------------------------------

    @property
    def all_terminal(self) -> bool:
        return all(job.terminal for job in self.jobs.values())

    def records(self, timestamp_utc: str) -> List[RunRecord]:
        """Run-store records: one per terminal job plus a session record.

        ``timestamp_utc`` is stamped by the caller (the CLI boundary) —
        the service itself never reads wall-clock time.  Under the
        deterministic configuration each job record also carries its
        exact latency attribution (``labels["attrib"]``), and the session
        record's metrics gain labeled latency/attribution histograms —
        computed into a *fresh* registry each call so ``records()`` stays
        idempotent.
        """
        attribs = {}
        if self.config.deterministic and self.tracer.enabled:
            attribs = {a.job_id: a for a in attribute_session(self)}
        out = [
            job_to_run(
                self.jobs[job_id],
                self.config.rev,
                timestamp_utc,
                attribution=(
                    attribs[job_id].to_dict() if job_id in attribs else None
                ),
            )
            for job_id in self.terminal_order
        ]
        labels: Dict[str, object] = {
            "admitted": self.admission.admitted,
            "rejected": {
                k: self.admission.rejected[k]
                for k in sorted(self.admission.rejected)
            },
            "workers": self.config.workers,
            "queue_depth": self.config.queue_depth,
            "completion_order": list(self.terminal_order),
            "states": {
                job_id: self.jobs[job_id].state.value
                for job_id in sorted(self.jobs)
            },
        }
        snapshot = self.registry.snapshot()
        if attribs:
            extra = MetricsRegistry()
            for job_id in self.terminal_order:
                a = attribs[job_id]
                request = self.jobs[job_id].request
                for bucket, value in a.buckets:
                    extra.histogram(
                        "service.attrib_ticks", bucket=bucket
                    ).observe(value)
                extra.histogram("service.latency_ticks").observe(a.total)
                extra.histogram(
                    "service.latency_ticks",
                    job_kind=request.kind,
                    priority=str(request.priority),
                ).observe(a.total)
            snapshot = merge_snapshots(snapshot, extra.snapshot())
        out.append(
            RunRecord(
                kind="service",
                rev=self.config.rev,
                seed=0,
                timestamp_utc=timestamp_utc,
                labels=labels,
                metrics=snapshot.to_dict(),
            )
        )
        return out

    # -- internals --------------------------------------------------------

    def _traced_runner(self, job: Job, ctx: JobContext) -> dict:
        # The pool has already bound job.trace_id on this thread, so this
        # span — and every descendant the runner/executor opens — stitches
        # into the job's end-to-end trace.
        with self.tracer.span(
            "service.job",
            job_id=job.job_id,
            kind=job.request.kind,
            priority=job.request.priority,
            client=job.request.client,
            trace_id=job.trace_id,
        ):
            return self.runner(job, ctx)

    def _on_terminal(self, job: Job) -> None:
        self.terminal_order.append(job.job_id)
        self.registry.counter(f"service.terminal.{job.state.value}").inc()
        if _evicted(job):
            self.registry.counter("service.evictions").inc()
        self._maybe_requeue(job)
        self.registry.gauge("service.queue_depth").set(len(self.queue))
        if self.all_terminal:
            self._idle.set()

    def _maybe_requeue(self, job: Job) -> bool:
        """Resubmit an evicted job's request under a fresh job id.

        Only externally-evicted cancellations qualify; client cancels and
        natural terminal states never requeue.  A draining service, an
        exhausted requeue budget, or an admission rejection all end the
        line (each counted separately so sessions stay auditable).
        """
        if (
            job.external_cancel is None
            or job.state is not JobState.CANCELLED
            or not self.config.requeue_on_eviction
        ):
            return False
        if job.requeues >= self.config.max_requeues:
            self.registry.counter("service.requeue_exhausted").inc()
            return False
        if self.admission.draining:
            self.registry.counter("service.requeue_draining").inc()
            return False
        clone = Job(
            job_id=f"job-{self._seq:04d}",
            request=job.request,
            seq=self._seq,
            requeues=job.requeues + 1,
            requeue_of=job.job_id,
        )
        try:
            self.admission.admit(clone)
        except ServiceError as exc:
            self.registry.counter(f"service.rejected.{exc.code}").inc()
            return False
        self._seq += 1
        self.jobs[clone.job_id] = clone
        clone.trace_id = mint_trace_id(
            "service", clone.request.seed, clone.seq
        )
        clone.history.append((JobState.QUEUED.value, self.clock()))
        self.registry.counter("service.requeued").inc()
        self._idle.clear()
        self.pool.notify()
        return True


def _monotonic() -> Callable[[], float]:
    import time

    return time.monotonic


def _evicted(job: Job) -> bool:
    """An eviction's terminal edge: external capacity loss, cancelled."""
    return job.external_cancel is not None and job.state is JobState.CANCELLED


def _evictions(service: EDAService) -> Dict[str, str]:
    return {
        job_id: job.external_cancel
        for job_id, job in sorted(service.jobs.items())
        if _evicted(job)
    }


# -- session driver -------------------------------------------------------


@dataclass
class SessionResult:
    """Everything one driven session produced."""

    service: EDAService
    outcomes: List[dict] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(1 for o in self.outcomes if o.get("accepted"))

    @property
    def rejected(self) -> int:
        return len(self.outcomes) - self.accepted

    @property
    def completion_order(self) -> List[str]:
        return list(self.service.terminal_order)

    @property
    def evictions(self) -> Dict[str, str]:
        """Evicted job id -> reason, in job-id order."""
        return _evictions(self.service)

    def billing_totals(self) -> Dict[str, Dict[str, float]]:
        """Per-job billed seconds/cost from the per-job registries."""
        out: Dict[str, Dict[str, float]] = {}
        for job_id in self.service.terminal_order:
            counters = self.service.jobs[job_id].metrics.get("counters", {})
            out[job_id] = {
                "billed_seconds": counters.get("executor.billed_seconds", 0.0),
                "billed_cost": counters.get("executor.billed_cost", 0.0),
            }
        return out


def run_session(
    requests: Sequence[JobRequest],
    config: Optional[ServiceConfig] = None,
    runner: Optional[Callable[[Job, JobContext], dict]] = None,
    cancel: Optional[Dict[int, int]] = None,
    evict: Optional[Dict[int, str]] = None,
) -> SessionResult:
    """Drive one complete service session synchronously.

    Every request is submitted before the first worker step runs (the
    submit loop never awaits), so with ``deterministic=True`` the whole
    session is a pure function of ``requests`` and the request seeds.
    ``cancel`` maps *submission index -> number of completed jobs to
    wait for* before cancelling that job (0 = cancel while queued); a
    threshold the session can no longer reach stops waiting once every
    admitted job is terminal.  ``evict`` maps *submission index ->
    reason*: that job loses its capacity at its first in-run checkpoint
    (``Job.external_cancel``), lands in ``cancelled`` and is requeued
    under a fresh id, which is never re-struck.

    The driver waits for the service to go idle before draining:
    requeues are refused while draining, and evicted jobs must be able
    to requeue.
    """
    service = EDAService(config=config, runner=runner)
    evict = evict or {}

    async def _drive() -> List[dict]:
        service.start()
        outcomes: List[dict] = []
        job_ids: Dict[int, str] = {}
        for index, request in enumerate(requests):
            try:
                doc = service.submit(request)
                job_ids[index] = doc["job_id"]
                service.jobs[doc["job_id"]].external_cancel = evict.get(index)
                outcomes.append({"accepted": True, "job_id": doc["job_id"]})
            except ServiceError as exc:
                outcomes.append({"accepted": False, **exc.to_response()})
        for index, after in sorted((cancel or {}).items()):
            job_id = job_ids.get(index)
            if job_id is None:
                continue
            while (
                len(service.pool.completed) < after
                and not service.all_terminal
            ):
                await asyncio.sleep(0)
            try:
                service.cancel(job_id)
            except (NotCancellableError, JobNotFoundError):
                pass
        await service.join()
        await service.drain()
        return outcomes

    outcomes = asyncio.run(_drive())
    return SessionResult(service=service, outcomes=outcomes)


def session_log(service: EDAService) -> List[str]:
    """Byte-stable per-job log lines in completion order.

    One line per terminal job — id, priority, client, kind, state,
    worker slot, billed totals — then one ``evicted`` line per evicted
    job (in job-id order) naming its reason and requeued incarnation.
    Exactly reproducible for one seed; CI diffs two same-seed runs.
    """
    lines: List[str] = []
    for job_id in service.terminal_order:
        job = service.jobs[job_id]
        counters = job.metrics.get("counters", {})
        lines.append(
            f"{job.job_id} priority={job.request.priority} "
            f"client={job.request.client} kind={job.request.kind} "
            f"state={job.state.value} worker={job.worker} "
            f"billed_seconds={counters.get('executor.billed_seconds', 0.0):.6f} "
            f"billed_cost={counters.get('executor.billed_cost', 0.0):.6f}"
        )
    requeued_as = {
        job.requeue_of: job.job_id
        for job in service.jobs.values()
        if job.requeue_of is not None
    }
    for job_id, reason in _evictions(service).items():
        lines.append(
            f"evicted {job_id} reason={reason} "
            f"requeued_as={requeued_as.get(job_id, 'none')}"
        )
    return lines


def seeded_job_mix(
    seed: int,
    jobs: int,
    kinds: Sequence[str] = ("execute", "flow", "plan"),
    priorities: Sequence[int] = (0, 1),
    clients: Sequence[str] = ("alice", "bob"),
    design: str = "ctrl",
    scale: float = 0.2,
) -> List[JobRequest]:
    """A reproducible mixed-priority request batch for smoke/regression
    runs — same seed, same batch, byte for byte."""
    rng = random.Random(seed)
    out: List[JobRequest] = []
    for _ in range(jobs):
        out.append(
            JobRequest(
                kind=rng.choice(list(kinds)),
                design=design,
                scale=scale,
                seed=rng.randrange(1 << 16),
                flow_seed=rng.choice((0, 1)),
                priority=rng.choice(list(priorities)),
                client=rng.choice(list(clients)),
            )
        )
    return out
