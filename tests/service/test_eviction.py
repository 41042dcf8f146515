"""External evictions: crash dumps, slot release, and requeue semantics.

An eviction is *not* a client cancel: something outside the service (an
AZ reclaim, a capacity storm) destroyed a job's worker.  The contract:

* the job lands in ``cancelled`` with ``external_cancel`` recording why,
* the pool writes the forensic crash dump (the job did real work) and
  still releases the slot in ``finally``,
* the service requeues a fresh incarnation — unless the client had
  cancelled, the requeue budget is spent, or the service is draining.

The 1k storm-churn test is the headline: a thousand jobs across every
terminal path *including mid-run evictions and their requeues* leak
nothing.
"""

import asyncio
import json
import os

import pytest

from repro.obs import Logger, MetricsRegistry, scoped
from repro.service import (
    EDAService,
    JobEvicted,
    JobNotFoundError,
    JobRequest,
    JobState,
    NotCancellableError,
    ServiceConfig,
    run_session,
    session_log,
)


def ok_runner(job, ctx):
    ctx.checkpoint()
    return {"ok": True}


class TestMidRunEviction:
    def test_evicted_job_lands_cancelled_with_reason(self):
        service = run_session(
            [JobRequest(kind="sleep") for _ in range(3)],
            ServiceConfig(workers=2, queue_depth=8),
            evict={1: "az_reclaim:us-east-1a"},
        ).service
        job = service.jobs["job-0001"]
        assert job.state is JobState.CANCELLED
        assert job.external_cancel == "az_reclaim:us-east-1a"
        assert job.worker is not None  # it was running, not queued

    def test_evicted_job_is_requeued_as_a_fresh_incarnation(self):
        service = run_session(
            [JobRequest(kind="sleep") for _ in range(2)],
            ServiceConfig(workers=1, queue_depth=8),
            evict={0: "storm"},
        ).service
        clones = [
            job for job in service.jobs.values() if job.requeue_of is not None
        ]
        assert len(clones) == 1
        clone = clones[0]
        assert clone.requeue_of == "job-0000"
        assert clone.requeues == 1
        assert clone.job_id not in ("job-0000", "job-0001")
        assert clone.state is JobState.DONE  # fresh id, never re-struck
        assert clone.request == service.jobs["job-0000"].request
        assert service.registry.snapshot().counters["service.requeued"] == 1
        assert session_log(service)[-1] == (
            f"evicted job-0000 reason=storm requeued_as={clone.job_id}"
        )

    def test_requeue_budget_is_finite(self):
        # Strike every incarnation: the original is requeued once, the
        # clone's eviction then exhausts max_requeues=1.
        def always_evict(job, ctx):
            job.external_cancel = "storm"
            ctx.checkpoint()
            return {"ok": True}

        service = run_session(
            [JobRequest(kind="sleep")],
            ServiceConfig(workers=1, queue_depth=8),
            runner=always_evict,
        ).service
        assert len(service.jobs) == 2
        assert all(
            job.state is JobState.CANCELLED for job in service.jobs.values()
        )
        counters = service.registry.snapshot().counters
        assert counters["service.requeued"] == 1
        assert counters["service.requeue_exhausted"] == 1

    def test_requeue_can_be_disabled(self):
        service = run_session(
            [JobRequest(kind="sleep")],
            ServiceConfig(workers=1, queue_depth=8, requeue_on_eviction=False),
            evict={0: "storm"},
        ).service
        assert len(service.jobs) == 1

    def test_eviction_outranks_client_cancel_at_checkpoint(self):
        def both(job, ctx):
            job.cancel_requested = True
            job.external_cancel = "storm"
            with pytest.raises(JobEvicted):
                ctx.checkpoint()
            raise JobEvicted(job.job_id, job.external_cancel)

        service = run_session(
            [JobRequest(kind="sleep")],
            ServiceConfig(workers=1, queue_depth=4, requeue_on_eviction=False),
            runner=both,
        ).service
        assert service.jobs["job-0000"].state is JobState.CANCELLED

    def test_eviction_writes_a_crash_dump(self, tmp_path):
        crash_dir = str(tmp_path / "crashes")
        ambient = MetricsRegistry()
        ambient.counter("unrelated.process.counter").inc(42)
        with scoped(log=Logger(deterministic=True), metrics=ambient):
            run_session(
                [JobRequest(kind="sleep")],
                ServiceConfig(
                    workers=1,
                    queue_depth=4,
                    crash_dir=crash_dir,
                    requeue_on_eviction=False,
                ),
                evict={0: "az_reclaim:us-east-1b"},
            )
        dumps = os.listdir(crash_dir)
        assert len(dumps) == 1
        assert "service.job.job-0000" in dumps[0]
        # The dump carries the job's own registry, not the ambient one.
        with open(os.path.join(crash_dir, dumps[0])) as handle:
            doc = json.load(handle)
        assert "unrelated.process.counter" not in doc["metrics"]["counters"]


class TestEvictVerb:
    def test_evict_queued_job_cancels_and_requeues(self):
        service = EDAService(
            config=ServiceConfig(workers=1, queue_depth=8), runner=ok_runner
        )

        async def drive():
            service.start()
            service.submit(JobRequest(kind="sleep"))
            doc = service.evict("job-0000", reason="maintenance")
            assert doc["state"] == "cancelled"
            await service.join()
            await service.drain()

        asyncio.run(drive())
        original = service.jobs["job-0000"]
        assert original.state is JobState.CANCELLED
        assert original.external_cancel == "maintenance"
        assert original.worker is None  # evicted before pickup
        clones = [
            job for job in service.jobs.values() if job.requeue_of is not None
        ]
        assert len(clones) == 1 and clones[0].state is JobState.DONE
        counters = service.registry.snapshot().counters
        assert counters["service.evictions"] == 1

    def test_evict_unknown_and_terminal_jobs_raise_typed_errors(self):
        service = EDAService(
            config=ServiceConfig(workers=1, queue_depth=4), runner=ok_runner
        )

        async def drive():
            service.start()
            service.submit(JobRequest(kind="sleep"))
            await service.join()
            with pytest.raises(JobNotFoundError):
                service.evict("job-9999")
            with pytest.raises(NotCancellableError):
                service.evict("job-0000")
            await service.drain()

        asyncio.run(drive())


class TestStormChurn:
    def test_no_slot_leak_after_1k_storm_churned_jobs(self):
        """1000 jobs; every 7th is evicted mid-run and requeued.  All
        slots come back, every incarnation is terminal, nothing leaks."""
        jobs = 1000
        requests = [
            JobRequest(kind="sleep", priority=i % 3) for i in range(jobs)
        ]
        evicted = {i: f"storm:{i}" for i in range(0, jobs, 7)}
        service = run_session(
            requests,
            ServiceConfig(workers=4, queue_depth=2 * jobs),
            evict=evicted,
        ).service
        pool = service.pool
        assert pool.active == 0
        assert pool.slots_acquired == pool.slots_released
        # Every original ran, every eviction spawned exactly one clone,
        # and the clones ran too.
        assert len(service.jobs) == jobs + len(evicted)
        assert pool.slots_acquired == jobs + len(evicted)
        assert all(job.terminal for job in service.jobs.values())
        cancelled = [
            job
            for job in service.jobs.values()
            if job.state is JobState.CANCELLED
        ]
        assert len(cancelled) == len(evicted)
        assert all(job.external_cancel is not None for job in cancelled)
        counters = service.registry.snapshot().counters
        assert counters["service.requeued"] == len(evicted)
        assert counters["service.evictions"] == len(evicted)

    def test_storm_session_replay_is_deterministic(self):
        requests = [JobRequest(kind="sleep", priority=i % 2) for i in range(40)]
        evicted = {i: "storm" for i in range(0, 40, 5)}
        config = ServiceConfig(workers=3, queue_depth=128)
        first = run_session(requests, config, evict=evicted)
        second = run_session(requests, config, evict=evicted)
        assert first.service.pool.completed == second.service.pool.completed
        assert session_log(first.service) == session_log(second.service)
        assert first.evictions == second.evictions
        assert len(first.evictions) == len(evicted)


class TestBaselineUnchanged:
    def test_plain_sessions_never_touch_the_eviction_path(self):
        result = run_session(
            [JobRequest(kind="sleep") for _ in range(4)],
            ServiceConfig(workers=2, queue_depth=8),
        )
        counters = result.service.registry.snapshot().counters
        assert "service.evictions" not in counters
        assert "service.requeued" not in counters
        assert all(
            job.external_cancel is None
            for job in result.service.jobs.values()
        )
