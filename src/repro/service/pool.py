"""Asyncio worker pool: N workers draining the priority queue.

Two execution modes, one scheduling discipline and one job body:

* ``inline`` (default) — the runner executes synchronously *inside* the
  event loop.  Workers only interleave at the explicit yield between
  jobs, so with a seeded arrival schedule the completion order equals
  the queue's delivery order exactly: the whole service becomes a
  deterministic state machine.
* ``thread`` — the same job body runs via ``loop.run_in_executor`` in a
  copy of the worker's :class:`contextvars.Context` (the executor does
  not carry it over by itself), for real wall-clock overlap.  Results,
  per-job metrics, billing and trace stitching match inline mode; the
  completion order is timing-dependent, so its contract relaxes to
  *set* equality with inline mode.

In both modes each job runs under ``scoped(metrics=..., tracer=...)``
with a **fresh metric registry** and the pool's tracer bound to the
job's trace id.  The obs state is context-local, so concurrent thread
jobs never see each other's registry; ``job.metrics`` is what the
multi-job billing oracle audits.

Invariants the property tests hold the pool to:

* a worker slot is **always** released — done, failed, cancelled or
  timed out, the release sits in a ``finally``; after 1k churned jobs
  ``slots_released == slots_acquired`` and ``active == 0``;
* :class:`~repro.service.errors.JobCancelled` / ``JobTimeout`` raised at
  runner checkpoints become the ``cancelled`` / ``timed_out`` terminal
  states, never crash dumps — except
  :class:`~repro.service.errors.JobEvicted` (external capacity loss),
  which lands in ``cancelled`` *and* writes the per-job crash dump;
* any *other* exception marks the job ``failed`` with a structured
  error document and (when a crash directory is configured and the
  flight recorder is on) writes a replayable per-job crash dump.

``drain()`` stops admission upstream, lets queued jobs finish, and
joins all workers; ``shutdown()`` additionally cancels whatever is
still queued.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Callable, Dict, List, Optional

from ..obs import MetricsRegistry, Tracer, get_logger, get_tracer, scoped
from ..obs.log import build_crash_report, write_crash_report
from .errors import JobCancelled, JobEvicted, JobTimeout, ServiceError
from .jobs import Job, JobContext, JobState
from .queue import JobQueue

__all__ = ["WorkerPool"]


class WorkerPool:
    """``size`` async workers running jobs popped from ``queue``."""

    def __init__(
        self,
        queue: JobQueue,
        runner: Callable[[Job, JobContext], dict],
        size: int,
        clock: Callable[[], float],
        mode: str = "inline",
        crash_dir: Optional[str] = None,
        on_terminal: Optional[Callable[[Job], None]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        if mode not in ("inline", "thread"):
            raise ValueError(f"unknown pool mode {mode!r}")
        self.queue = queue
        self.runner = runner
        self.size = size
        self.clock = clock
        self.mode = mode
        self.crash_dir = crash_dir
        self.on_terminal = on_terminal
        #: Scoped as the ambient tracer around each job (beside the
        #: per-job metric registry), so runner-internal spans land on the
        #: service's tracer and under the job's trace id.
        self.tracer = tracer
        self.active = 0
        self.slots_acquired = 0
        self.slots_released = 0
        self.completed: List[str] = []  # job ids in completion order
        self._tasks: List[asyncio.Task] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._stopping = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks on the running event loop."""
        if self._tasks:
            raise RuntimeError("pool already started")
        self._stopping = False
        self._wakeup = asyncio.Event()
        self._tasks = [
            asyncio.get_running_loop().create_task(
                self._worker(i), name=f"service-worker-{i}"
            )
            for i in range(self.size)
        ]

    def notify(self) -> None:
        """Wake idle workers (call after every admission)."""
        if self._wakeup is not None:
            self._wakeup.set()

    async def drain(self) -> None:
        """Finish everything queued, then stop all workers."""
        self._stopping = True
        self.notify()
        if self._tasks:
            await asyncio.gather(*self._tasks)
        self._tasks = []

    async def shutdown(self) -> List[Job]:
        """Cancel the backlog, finish running jobs, stop workers.

        Returns the queued jobs that were cancelled unrun.
        """
        dropped: List[Job] = []
        while True:
            job = self.queue.pop()
            if job is None:
                break
            job.transition(JobState.CANCELLED, self.clock())
            self._finalize(job)
            dropped.append(job)
        await self.drain()
        return dropped

    # -- the worker loop --------------------------------------------------

    async def _worker(self, index: int) -> None:
        assert self._wakeup is not None
        while True:
            job = self.queue.pop()
            if job is None:
                if self._stopping:
                    return
                await self._wakeup.wait()
                self._wakeup.clear()
                continue
            await self._run_job(index, job)
            # Yield so peers (and cancellation requests) interleave at a
            # deterministic point even in inline mode.
            await asyncio.sleep(0)

    async def _run_job(self, index: int, job: Job) -> None:
        started = self.clock()
        job.worker = index
        job.transition(JobState.RUNNING, started)
        ctx = JobContext(
            job,
            self.clock,
            started=started,
            timeout_seconds=job.request.timeout_seconds,
        )
        registry = MetricsRegistry()
        tracer = self.tracer if self.tracer is not None else get_tracer()

        def call() -> dict:
            try:
                with scoped(metrics=registry, tracer=tracer):
                    with tracer.trace(job.trace_id):
                        ctx.checkpoint()
                        return self.runner(job, ctx)
            finally:
                job.metrics = registry.snapshot().to_dict()

        self.active += 1
        self.slots_acquired += 1
        try:
            if self.mode == "inline":
                result = call()
            else:
                result = await asyncio.get_running_loop().run_in_executor(
                    None, contextvars.copy_context().run, call
                )
            job.result = result
            job.transition(JobState.DONE, self.clock())
        except JobEvicted as exc:
            # External capacity loss, not a client cancel: same terminal
            # state, but keep the forensic dump — the job did real work
            # that something outside the service destroyed.
            job.transition(JobState.CANCELLED, self.clock())
            self._dump_crash(job, exc, registry, tracer)
        except JobCancelled:
            job.transition(JobState.CANCELLED, self.clock())
        except JobTimeout:
            job.transition(JobState.TIMED_OUT, self.clock())
        except Exception as exc:  # noqa: BLE001 - job isolation boundary
            job.error = self._error_doc(exc)
            job.transition(JobState.FAILED, self.clock())
            self._dump_crash(job, exc, registry, tracer)
        finally:
            self.active -= 1
            self.slots_released += 1
            self.completed.append(job.job_id)
            self._finalize(job)

    # -- helpers ----------------------------------------------------------

    @staticmethod
    def _error_doc(exc: Exception) -> dict:
        if isinstance(exc, ServiceError):
            return exc.to_response()["error"]
        return {
            "code": "job_failed",
            "status": 500,
            "message": f"{type(exc).__name__}: {exc}",
            "retryable": False,
            "details": {},
        }

    def _dump_crash(
        self,
        job: Job,
        exc: Exception,
        registry: MetricsRegistry,
        tracer: Tracer,
    ) -> None:
        """Forensic dump of the job's own telemetry (its registry, the
        pool's tracer), for *unexpected* failures only."""
        if self.crash_dir is None or not get_logger().enabled:
            return
        doc = build_crash_report(
            f"service.job.{job.job_id}",
            job.request.seed,
            exc=exc,
            tracer=tracer,
            metrics=registry,
        )
        write_crash_report(doc, self.crash_dir)

    def _finalize(self, job: Job) -> None:
        if self.on_terminal is not None:
            self.on_terminal(job)
