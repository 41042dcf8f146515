"""Multi-job billing: per-job scoped counters must equal each job's own
execution trace exactly, and seeded sessions must replay bit-identically.

This extends the single-run obs billing oracle to concurrent sessions:
inline workers scope a fresh metric registry per job, so the counters on
``job.metrics`` are *that job's* executor counters and nothing else.
"""

import pytest

from repro.service import (
    JobRequest,
    ServiceConfig,
    run_session,
    seeded_job_mix,
    session_log,
)


def execute_request(i, priority):
    return JobRequest(
        kind="execute",
        design="ctrl",
        scale=0.2,
        seed=1000 + i,
        flow_seed=0,
        priority=priority,
        client="alice" if i % 2 else "bob",
    )


class TestPerJobBillingExactness:
    def test_counters_equal_trace_for_a_mixed_priority_burst(self):
        requests = [execute_request(i, priority=i % 3) for i in range(6)]
        result = run_session(
            requests, ServiceConfig(workers=3, queue_depth=16)
        )
        service = result.service
        assert service.all_terminal
        checked = 0
        for job in service.jobs.values():
            assert job.state.value == "done"
            assert job.result["feasible"] is True
            counters = job.metrics["counters"]
            # Exact equality, not approx: same floats, same order of
            # accumulation, because the registry was scoped to this job.
            assert counters["executor.billed_seconds"] == (
                job.result["billed_seconds"]
            )
            assert counters["executor.billed_cost"] == (
                job.result["billed_cost"]
            )
            checked += 1
        assert checked == len(requests)

    def test_session_totals_are_the_sum_of_job_totals(self):
        requests = [execute_request(i, priority=0) for i in range(4)]
        result = run_session(
            requests, ServiceConfig(workers=2, queue_depth=8)
        )
        totals = result.billing_totals()
        assert set(totals) == set(result.service.jobs)
        summed = sum(t["billed_cost"] for t in totals.values())
        per_job = sum(
            job.result["billed_cost"]
            for job in result.service.jobs.values()
        )
        assert summed == per_job > 0

    def test_non_executing_kinds_bill_zero(self):
        requests = [
            JobRequest(kind="flow", design="ctrl", scale=0.2),
            JobRequest(kind="plan", design="ctrl", scale=0.2),
            JobRequest(kind="sleep", params={"steps": 2}),
        ]
        result = run_session(
            requests, ServiceConfig(workers=1, queue_depth=8)
        )
        for job_id, totals in result.billing_totals().items():
            assert totals == {
                "billed_seconds": 0.0, "billed_cost": 0.0
            }, job_id


class TestSeededReplays:
    def test_hundred_job_mixed_kind_run_replays_identically(self):
        """The PR's acceptance run: 100 mixed-priority pipeline jobs,
        two same-seed sessions, identical order *and* billing."""
        config = ServiceConfig(workers=4, queue_depth=128)
        runs = []
        for _ in range(2):
            result = run_session(seeded_job_mix(42, 100), config)
            assert result.accepted == 100
            assert result.service.all_terminal
            runs.append(
                (
                    result.completion_order,
                    result.billing_totals(),
                    "\n".join(session_log(result.service)),
                )
            )
        assert runs[0] == runs[1]
        order, billing, _ = runs[0]
        assert len(order) == len(billing) == 100
        executed = [b for b in billing.values() if b["billed_cost"] > 0]
        assert executed  # the mix contains execute jobs that billed

    def test_worker_count_does_not_change_job_results(self):
        """Scheduling decides when a job runs, never what it computes:
        the same seeded batch yields identical per-job time and billing
        at every worker count."""
        requests = [execute_request(i, priority=i % 2) for i in range(8)]
        per_level = {}
        for workers in (1, 2, 4, 8):
            result = run_session(
                requests, ServiceConfig(workers=workers, queue_depth=8)
            )
            assert result.service.all_terminal
            billing = result.billing_totals()
            per_level[workers] = {
                job_id: (
                    job.result["total_time"],
                    billing[job_id]["billed_seconds"],
                    billing[job_id]["billed_cost"],
                )
                for job_id, job in result.service.jobs.items()
            }
        reference = per_level[1]
        assert len(reference) == len(requests)
        assert all(cost > 0 for _, _, cost in reference.values())
        for workers, results in per_level.items():
            assert results == reference, workers

    def test_different_seeds_change_the_session(self):
        config = ServiceConfig(workers=2, queue_depth=32)
        log_a = session_log(
            run_session(seeded_job_mix(1, 10), config).service
        )
        log_b = session_log(
            run_session(seeded_job_mix(2, 10), config).service
        )
        assert log_a != log_b
