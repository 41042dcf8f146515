"""The three-verb request API: submit/status/cancel plus the session
driver's determinism contract."""

import signal

import pytest

from repro.service import (
    EDAService,
    InvalidRequestError,
    JobNotFoundError,
    JobRequest,
    NotCancellableError,
    QueueFullError,
    RateLimitedError,
    ServiceConfig,
    ServiceDrainingError,
    run_session,
    seeded_job_mix,
    session_log,
)


def sleepy(priority=0, client="default", steps=0):
    return JobRequest(
        kind="sleep", priority=priority, client=client,
        params={"steps": steps},
    )


def toy_runner(job, ctx):
    return {"ok": True}


class TestSubmit:
    def test_returns_the_job_document(self):
        service = EDAService(runner=toy_runner)
        doc = service.submit(sleepy())
        assert doc["job_id"] == "job-0000"
        assert doc["state"] == "queued"
        assert doc["request"]["kind"] == "sleep"
        assert doc["history"][0][0] == "queued"

    def test_job_ids_are_sequential(self):
        service = EDAService(runner=toy_runner)
        ids = [service.submit(sleepy())["job_id"] for _ in range(3)]
        assert ids == ["job-0000", "job-0001", "job-0002"]

    def test_invalid_kind_is_a_typed_400(self):
        service = EDAService(runner=toy_runner)
        with pytest.raises(InvalidRequestError) as excinfo:
            service.submit(JobRequest(kind="frobnicate"))
        assert excinfo.value.status == 400
        # Rejected submissions never consume a job id.
        assert service.submit(sleepy())["job_id"] == "job-0000"

    def test_invalid_scale_and_timeout(self):
        service = EDAService(runner=toy_runner)
        with pytest.raises(InvalidRequestError):
            service.submit(JobRequest(kind="sleep", scale=0.0))
        with pytest.raises(InvalidRequestError):
            service.submit(JobRequest(kind="sleep", timeout_seconds=-1.0))

    def test_queue_full_is_a_typed_503(self):
        service = EDAService(
            ServiceConfig(queue_depth=2), runner=toy_runner
        )
        service.submit(sleepy())
        service.submit(sleepy())
        with pytest.raises(QueueFullError) as excinfo:
            service.submit(sleepy())
        err = excinfo.value.to_response()["error"]
        assert (err["status"], err["retryable"]) == (503, True)
        assert err["details"]["depth"] == 2

    def test_rate_limit_is_a_typed_429_per_client(self):
        service = EDAService(
            ServiceConfig(rate_capacity=2, rate_refill_per_second=1e-6),
            runner=toy_runner,
        )
        service.submit(sleepy(client="alice"))
        service.submit(sleepy(client="alice"))
        with pytest.raises(RateLimitedError) as excinfo:
            service.submit(sleepy(client="alice"))
        err = excinfo.value.to_response()["error"]
        assert err["status"] == 429
        assert err["retryable"] is True
        assert err["details"]["retry_after_seconds"] > 0
        # A different client has its own bucket.
        service.submit(sleepy(client="bob"))

    def test_draining_service_rejects_with_503(self):
        service = EDAService(runner=toy_runner)
        service.admission.draining = True
        with pytest.raises(ServiceDrainingError) as excinfo:
            service.submit(sleepy())
        assert excinfo.value.code == "draining"

    def test_rejections_are_counted_by_code(self):
        service = EDAService(
            ServiceConfig(queue_depth=1), runner=toy_runner
        )
        service.submit(sleepy())
        for _ in range(3):
            with pytest.raises(QueueFullError):
                service.submit(sleepy())
        assert service.admission.rejected == {"queue_full": 3}
        snapshot = service.registry.snapshot().to_dict()
        assert snapshot["counters"]["service.rejected.queue_full"] == 3


class TestStatusAndCancel:
    def test_status_unknown_job_is_404(self):
        service = EDAService(runner=toy_runner)
        with pytest.raises(JobNotFoundError):
            service.status("job-9999")

    def test_cancel_queued_job_is_immediate(self):
        service = EDAService(runner=toy_runner)
        job_id = service.submit(sleepy())["job_id"]
        doc = service.cancel(job_id)
        assert doc["state"] == "cancelled"
        assert service.terminal_order == [job_id]

    def test_cancel_terminal_job_is_409(self):
        service = EDAService(runner=toy_runner)
        job_id = service.submit(sleepy())["job_id"]
        service.cancel(job_id)
        with pytest.raises(NotCancellableError) as excinfo:
            service.cancel(job_id)
        assert excinfo.value.status == 409

    def test_cancel_unknown_job_is_404(self):
        service = EDAService(runner=toy_runner)
        with pytest.raises(JobNotFoundError):
            service.cancel("job-1234")

    def test_cancelled_queued_job_never_runs(self):
        result = run_session(
            [sleepy(), sleepy(), sleepy()],
            ServiceConfig(workers=1, queue_depth=8),
            runner=toy_runner,
            cancel={1: 0},
        )
        victim = result.service.jobs["job-0001"]
        assert victim.state.value == "cancelled"
        assert victim.worker is None
        assert result.service.pool.slots_acquired == 2

    def test_unreachable_cancel_threshold_does_not_hang(self):
        # Two jobs can never complete five: the wait must end once every
        # admitted job is terminal instead of spinning forever.
        def hung(signum, frame):
            raise TimeoutError("run_session spun on an unreachable cancel")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(10)
        try:
            result = run_session(
                [sleepy(), sleepy()], ServiceConfig(workers=1), cancel={1: 5}
            )
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert [job.state.value for job in result.service.jobs.values()] == [
            "done",
            "done",
        ]


class TestSessionDeterminism:
    def test_completion_order_is_priority_then_fifo_on_one_worker(self):
        requests = [
            sleepy(priority=0),
            sleepy(priority=2),
            sleepy(priority=1),
            sleepy(priority=2),
        ]
        result = run_session(
            requests, ServiceConfig(workers=1, queue_depth=8),
            runner=toy_runner,
        )
        assert result.completion_order == [
            "job-0001", "job-0003", "job-0002", "job-0000"
        ]

    def test_whole_batch_admission_bound(self):
        # Submit never awaits, so exactly `depth` requests land.
        requests = [sleepy() for _ in range(10)]
        result = run_session(
            requests, ServiceConfig(workers=2, queue_depth=6),
            runner=toy_runner,
        )
        assert result.accepted == 6
        assert result.rejected == 4
        codes = {
            o["error"]["code"]
            for o in result.outcomes
            if not o.get("accepted")
        }
        assert codes == {"queue_full"}

    def test_hundred_job_mixed_priority_run_replays_identically(self):
        """The acceptance property: same seed, same everything."""
        config = ServiceConfig(workers=4, queue_depth=128)
        runs = []
        for _ in range(2):
            requests = seeded_job_mix(42, 100, kinds=("sleep",))
            result = run_session(requests, config, runner=None)
            runs.append(
                (
                    result.completion_order,
                    result.billing_totals(),
                    session_log(result.service),
                    [j.state.value for j in result.service.jobs.values()],
                )
            )
        assert runs[0] == runs[1]
        order, billing, log, states = runs[0]
        assert len(order) == 100
        assert set(states) == {"done"}
        assert len(log) == 100

    def test_session_log_is_byte_stable(self):
        config = ServiceConfig(workers=2, queue_depth=32)
        logs = []
        for _ in range(2):
            result = run_session(
                seeded_job_mix(7, 12, kinds=("sleep",)),
                config, runner=toy_runner,
            )
            logs.append("\n".join(session_log(result.service)))
        assert logs[0] == logs[1]
        for line in logs[0].splitlines():
            assert line.startswith("job-")
            assert "billed_seconds=" in line


class TestRecords:
    def test_records_one_per_job_plus_session(self):
        result = run_session(
            [sleepy(priority=1, client="alice"), sleepy()],
            ServiceConfig(workers=1, queue_depth=8),
            runner=toy_runner,
        )
        records = result.service.records("2026-08-08T00:00:00Z")
        kinds = [r.kind for r in records]
        assert kinds == ["service.job", "service.job", "service"]
        session = records[-1]
        assert session.labels["admitted"] == 2
        assert session.labels["states"] == {
            "job-0000": "done", "job-0001": "done"
        }
        assert session.labels["completion_order"] == [
            "job-0000", "job-0001"
        ]
        job_record = records[0]
        assert job_record.labels["client"] == "alice"
        assert job_record.labels["history"][-1][0] == "done"

    def test_seeded_job_mix_is_reproducible(self):
        assert seeded_job_mix(3, 10) == seeded_job_mix(3, 10)
        assert seeded_job_mix(3, 10) != seeded_job_mix(4, 10)
