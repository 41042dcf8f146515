"""Worker-pool properties: slot release, drain/shutdown, state mapping.

The load-bearing invariant: a worker slot is *always* released — done,
failed, cancelled, or timed out — so a churned service never leaks
capacity.  The 1k-churn test hammers every terminal path at once.
"""

import asyncio
from collections import Counter

import pytest

from repro.obs import attribution_violations
from repro.service import (
    EDAService,
    JobCancelled,
    JobRequest,
    JobState,
    JobTimeout,
    ServiceConfig,
    run_session,
)


def churn_runner(job, ctx):
    """Toy runner whose behaviour the request's params select."""
    behavior = job.request.params.get("behavior", "ok")
    if behavior == "fail":
        raise ValueError("boom")
    if behavior == "cancel":
        # A cancel request lands mid-run; the next checkpoint observes it.
        job.cancel_requested = True
        ctx.checkpoint()
    if behavior == "timeout":
        raise JobTimeout(job.job_id)
    return {"ok": True}


def churn_request(behavior="ok", priority=0):
    return JobRequest(
        kind="sleep", priority=priority, params={"behavior": behavior}
    )


BEHAVIOR_STATE = {
    "ok": JobState.DONE,
    "fail": JobState.FAILED,
    "cancel": JobState.CANCELLED,
    "timeout": JobState.TIMED_OUT,
}


class TestTerminalMapping:
    def test_each_behavior_maps_to_its_terminal_state(self):
        behaviors = ["ok", "fail", "cancel", "timeout"]
        result = run_session(
            [churn_request(b) for b in behaviors],
            ServiceConfig(workers=2, queue_depth=8),
            runner=churn_runner,
        )
        states = [
            result.service.jobs[f"job-{i:04d}"].state
            for i in range(len(behaviors))
        ]
        assert states == [BEHAVIOR_STATE[b] for b in behaviors]

    def test_failure_carries_structured_error_document(self):
        result = run_session(
            [churn_request("fail")],
            ServiceConfig(workers=1, queue_depth=4),
            runner=churn_runner,
        )
        job = result.service.jobs["job-0000"]
        assert job.state is JobState.FAILED
        assert job.error["code"] == "job_failed"
        assert "ValueError" in job.error["message"]
        assert job.result is None

    def test_control_flow_exceptions_leave_no_error_document(self):
        result = run_session(
            [churn_request("cancel"), churn_request("timeout")],
            ServiceConfig(workers=1, queue_depth=4),
            runner=churn_runner,
        )
        for job in result.service.jobs.values():
            assert job.error is None
            assert job.terminal

    def test_cooperative_timeout_on_the_tick_clock(self):
        # Each checkpoint advances the deterministic clock; ten rounds
        # overrun a 3-tick budget and must terminate as timed_out.
        request = JobRequest(
            kind="sleep", timeout_seconds=3.0, params={"steps": 10}
        )
        result = run_session(
            [request], ServiceConfig(workers=1, queue_depth=4)
        )
        job = result.service.jobs["job-0000"]
        assert job.state is JobState.TIMED_OUT
        assert job.error is None


class TestSlotRelease:
    def test_slots_balance_after_mixed_outcomes(self):
        behaviors = ["ok", "fail", "cancel", "timeout"] * 3
        result = run_session(
            [churn_request(b) for b in behaviors],
            ServiceConfig(workers=3, queue_depth=32),
            runner=churn_runner,
        )
        pool = result.service.pool
        assert pool.active == 0
        assert pool.slots_acquired == pool.slots_released == len(behaviors)
        assert all(job.terminal for job in result.service.jobs.values())

    def test_no_slot_leak_after_1k_churned_jobs(self):
        """The headline property: 1000 jobs across every terminal path
        (including cancelled-while-queued) release every slot."""
        behaviors = ["ok", "fail", "cancel", "timeout"]
        jobs = 1000
        requests = [
            churn_request(behaviors[i % 4], priority=i % 3)
            for i in range(jobs)
        ]
        # Cancel every 10th job before the pool takes its first step.
        cancel = {i: 0 for i in range(0, jobs, 10)}
        result = run_session(
            requests,
            ServiceConfig(workers=4, queue_depth=jobs),
            runner=churn_runner,
            cancel=cancel,
        )
        service = result.service
        pool = service.pool
        ran = pool.slots_acquired
        assert pool.active == 0
        assert pool.slots_released == ran
        # Queued-cancelled jobs never touch a worker.
        assert ran == jobs - len(cancel)
        assert all(job.terminal for job in service.jobs.values())
        assert len(service.terminal_order) == jobs
        assert service.all_terminal

    def test_worker_indices_are_recorded(self):
        result = run_session(
            [churn_request() for _ in range(6)],
            ServiceConfig(workers=2, queue_depth=8),
            runner=churn_runner,
        )
        workers = {
            job.worker for job in result.service.jobs.values()
        }
        assert workers <= {0, 1}
        assert all(job.worker is not None for job in result.service.jobs.values())


class TestDrainAndShutdown:
    def test_drain_finishes_the_backlog(self):
        result = run_session(
            [churn_request() for _ in range(5)],
            ServiceConfig(workers=1, queue_depth=8),
            runner=churn_runner,
        )
        assert all(
            job.state is JobState.DONE
            for job in result.service.jobs.values()
        )
        assert len(result.service.pool.completed) == 5

    def test_shutdown_cancels_the_backlog_unrun(self):
        async def drive():
            service = EDAService(
                ServiceConfig(workers=1, queue_depth=8),
                runner=churn_runner,
            )
            for _ in range(4):
                service.submit(churn_request())
            # Pool never started: shutdown must drop everything queued.
            dropped = await service.shutdown()
            return service, dropped

        service, dropped = asyncio.run(drive())
        assert len(dropped) == 4
        assert all(job.state is JobState.CANCELLED for job in dropped)
        assert service.pool.slots_acquired == 0
        assert len(service.terminal_order) == 4

    def test_pool_rejects_double_start(self):
        async def drive():
            service = EDAService(
                ServiceConfig(workers=1, queue_depth=4),
                runner=churn_runner,
            )
            service.start()
            with pytest.raises(RuntimeError):
                service.start()
            await service.drain()

        asyncio.run(drive())

    def test_invalid_pool_parameters(self):
        with pytest.raises(ValueError):
            EDAService(ServiceConfig(workers=0), runner=churn_runner)
        with pytest.raises(ValueError):
            EDAService(ServiceConfig(mode="fibers"), runner=churn_runner)


def mixed_batch():
    """Sleep jobs plus real execute/plan/pipeline jobs on one warm flow."""
    requests = [
        JobRequest(kind="sleep", params={"steps": i % 3}) for i in range(3)
    ]
    for seed, kind in enumerate(("execute", "plan", "pipeline", "execute")):
        requests.append(
            JobRequest(kind=kind, design="ctrl", scale=0.15, seed=seed)
        )
    return requests


@pytest.fixture(scope="module")
def inline_and_thread():
    """The same batch under both pool modes, with three workers each."""
    return {
        mode: run_session(mixed_batch(), ServiceConfig(workers=3, mode=mode))
        for mode in ("inline", "thread")
    }


class TestThreadMode:
    """Thread mode keeps inline mode's outcomes, up to completion order:
    results, per-job metrics, billing, attribution and the stitched trace
    all match, and completed ids match as a set."""

    def test_every_job_is_terminal_and_slots_balance(self, inline_and_thread):
        for result in inline_and_thread.values():
            service = result.service
            assert service.all_terminal
            assert service.pool.slots_acquired == service.pool.slots_released

    def test_same_completed_ids_results_and_counters(self, inline_and_thread):
        inline = inline_and_thread["inline"].service
        thread = inline_and_thread["thread"].service
        assert set(inline.pool.completed) == set(thread.pool.completed)
        assert len(inline.pool.completed) == len(mixed_batch())
        for job_id, job in inline.jobs.items():
            assert job.result is not None
            assert thread.jobs[job_id].result == job.result
        assert (
            thread.registry.snapshot().to_dict()["counters"]
            == inline.registry.snapshot().to_dict()["counters"]
        )

    def test_per_job_metrics_match(self, inline_and_thread):
        inline = inline_and_thread["inline"].service
        thread = inline_and_thread["thread"].service
        for job_id, job in inline.jobs.items():
            assert thread.jobs[job_id].metrics == job.metrics

    def test_billing_counters_equal_each_result(self, inline_and_thread):
        thread = inline_and_thread["thread"].service
        checked = 0
        for job in thread.jobs.values():
            totals = job.result.get("execution", job.result)
            if "billed_seconds" not in totals:
                continue
            counters = job.metrics["counters"]
            assert counters["executor.billed_seconds"] == (
                totals["billed_seconds"]
            )
            assert counters["executor.billed_cost"] == totals["billed_cost"]
            checked += 1
        assert checked == 3

    def test_attribution_holds(self, inline_and_thread):
        assert attribution_violations(inline_and_thread["thread"].service) == []

    def test_every_span_is_stitched_under_a_job_trace(self, inline_and_thread):
        thread = inline_and_thread["thread"].service
        trace_ids = {job.trace_id for job in thread.jobs.values()}
        assert thread.tracer.spans
        assert all(span.trace_id in trace_ids for span in thread.tracer.spans)

    def test_span_names_match_inline(self, inline_and_thread):
        def names(mode):
            spans = inline_and_thread[mode].service.tracer.spans
            return Counter(span.name for span in spans)

        assert names("thread") == names("inline")

    def test_shared_flow_is_built_once(self, inline_and_thread):
        thread = inline_and_thread["thread"].service
        assert len(thread.tracer.find("flow")) == 1
