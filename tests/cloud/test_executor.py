"""Tests for the fault-tolerant plan executor.

Covers the acceptance criteria of the execution engine: fault-free runs
reproduce the plan's nominal runtime/cost exactly, the same seed yields a
byte-identical trace, distinct seeds diverge, retry exhaustion aborts the
flow cleanly, and the degradation path (K preemptions -> on-demand
fallback -> mid-flight re-plan) works end to end, and the Monte-Carlo
mean converges to the closed-form spot model.
"""

import math

import pytest

from repro.cloud import (
    ExecutionPolicy,
    ExecutionTrace,
    EventKind,
    FaultProfile,
    PlanExecutor,
    RetryPolicy,
    simulate_spot_completion_times,
)
from repro.cloud.executor import SPOT_SUFFIX, is_spot_vm
from repro.cloud.instance import InstanceFamily, VMConfig
from repro.cloud.provisioner import DeploymentPlan
from repro.cloud.spot import spot_expected_runtime
from repro.core.optimize import ConfigOption, StageOptions
from repro.eda.job import EDAStage

DISCOUNT = 0.3


def _vm(name, price, vcpus=4):
    return VMConfig(
        name=name,
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=vcpus,
        memory_gb=4.0 * vcpus,
        price_per_hour=price,
    )


def _spot_twin(vm):
    return VMConfig(
        name=vm.name + SPOT_SUFFIX,
        family=vm.family,
        vcpus=vm.vcpus,
        memory_gb=vm.memory_gb,
        price_per_hour=vm.price_per_hour * DISCOUNT,
    )


def _menus_and_plan(spot_stages=()):
    """A 4-stage plan plus full menus (on-demand + spot twin per stage).

    ``spot_stages`` selects which stages run on their spot twin.
    """
    runtimes = {
        EDAStage.SYNTHESIS: 400,
        EDAStage.PLACEMENT: 600,
        EDAStage.ROUTING: 900,
        EDAStage.STA: 200,
    }
    menus = []
    plan = DeploymentPlan(design="exec-test")
    for i, (stage, runtime) in enumerate(runtimes.items()):
        od = _vm(f"od{i}", 1.0 + 0.5 * i)
        spot = _spot_twin(od)
        options = [
            ConfigOption(vm=od, runtime_seconds=runtime, price=od.cost(runtime)),
            ConfigOption(
                vm=spot, runtime_seconds=runtime, price=spot.cost(runtime)
            ),
        ]
        menus.append(StageOptions(stage=stage, options=options))
        plan.add(stage, spot if stage in spot_stages else od, runtime)
    return plan, menus


class TestFaultFree:
    def test_reproduces_plan_exactly(self):
        plan, _ = _menus_and_plan()
        result = PlanExecutor(FaultProfile.none()).execute(
            plan, deadline_seconds=3000.0, seed=7
        )
        assert result.completed
        assert result.met_deadline
        assert result.total_time == plan.total_runtime
        assert result.total_cost == pytest.approx(plan.total_cost, rel=1e-12)
        assert result.trace.preemptions() == 0
        assert not result.replanned

    def test_trace_shape(self):
        plan, _ = _menus_and_plan()
        result = PlanExecutor(FaultProfile.none()).execute(plan, seed=0)
        trace = result.trace
        assert trace.count(EventKind.FLOW_START) == 1
        assert trace.count(EventKind.FLOW_COMPLETE) == 1
        n = len(plan.assignments)
        assert trace.count(EventKind.STAGE_START) == n
        assert trace.count(EventKind.STAGE_COMMIT) == n
        assert trace.count(EventKind.BILLED) == n
        assert [e.seq for e in trace] == list(range(len(trace)))

    def test_spot_without_interrupts_runs_nominal(self):
        plan, _ = _menus_and_plan(spot_stages={EDAStage.ROUTING})
        result = PlanExecutor(FaultProfile.none()).execute(plan, seed=0)
        assert result.total_time == plan.total_runtime
        assert result.total_cost == pytest.approx(plan.total_cost, rel=1e-12)

    def test_lean_mode_matches_recorded_totals(self):
        plan, _ = _menus_and_plan(spot_stages={EDAStage.PLACEMENT})
        profile = FaultProfile.preemption_heavy()
        full = PlanExecutor(profile).execute(plan, seed=11)
        lean = PlanExecutor(profile).execute(plan, seed=11, record_events=False)
        assert lean.total_time == full.total_time
        assert lean.total_cost == pytest.approx(full.total_cost, rel=1e-12)
        assert lean.trace.events == [] and lean.segments == []
        assert full.trace.events


HEAVY = FaultProfile(
    spot_interrupt_rate_per_hour=120.0,
    checkpoint_interval_seconds=60.0,
)


class TestDeterminism:
    def test_same_seed_identical_trace(self):
        plan, menus = _menus_and_plan(
            spot_stages={EDAStage.PLACEMENT, EDAStage.ROUTING}
        )
        runs = [
            PlanExecutor(HEAVY).execute(
                plan, deadline_seconds=20_000.0, seed=42, stage_options=menus
            )
            for _ in range(2)
        ]
        assert runs[0].trace.events == runs[1].trace.events
        assert runs[0].trace.render() == runs[1].trace.render()
        assert runs[0].trace.to_jsonl() == runs[1].trace.to_jsonl()
        assert runs[0].summary() == runs[1].summary()

    def test_distinct_seeds_distinct_preemption_schedules(self):
        plan, _ = _menus_and_plan(spot_stages={EDAStage.ROUTING})
        executor = PlanExecutor(HEAVY, ExecutionPolicy.unbounded())
        schedules = set()
        for seed in range(6):
            result = executor.execute(plan, seed=seed)
            schedules.add(
                tuple(
                    e.time for e in result.trace.of_kind(EventKind.PREEMPTION)
                )
            )
        assert len(schedules) >= 5

    def test_trace_disabled_record_is_noop(self):
        trace = ExecutionTrace(seed=0, enabled=False)
        trace.record(1.0, EventKind.FLOW_START)
        assert len(trace) == 0


class TestRetryBackoff:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            max_retries=10,
            backoff_base_seconds=2.0,
            backoff_multiplier=2.0,
            backoff_max_seconds=30.0,
            jitter_fraction=0.0,
        )
        delays = [policy.backoff_seconds(a, 0.0) for a in range(6)]
        assert delays == [2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
        # Jitter only ever lengthens the sleep, by at most the fraction.
        jittered = RetryPolicy(jitter_fraction=0.5).backoff_seconds(0, 1.0)
        assert 2.0 <= jittered <= 3.0

    def test_retry_exhaustion_aborts_flow(self):
        plan, _ = _menus_and_plan()
        profile = FaultProfile(boot_failure_prob=1.0)
        policy = ExecutionPolicy(retry=RetryPolicy(max_retries=2))
        result = PlanExecutor(profile, policy).execute(
            plan, deadline_seconds=3000.0, seed=0
        )
        assert not result.completed
        assert not result.met_deadline
        trace = result.trace
        stage0 = plan.assignments[0].stage.value
        assert trace.count(EventKind.BOOT_FAILURE, stage0) == 3
        assert trace.count(EventKind.BACKOFF, stage0) == 2
        assert trace.count(EventKind.STAGE_ABORT) == 1
        assert trace.count(EventKind.FLOW_FAIL) == 1
        # Backoff sleeps are real elapsed time, carried into the abort.
        assert result.total_time > 0.0
        assert result.total_time == trace.events[-1].time

    def test_transient_errors_recover(self):
        plan, _ = _menus_and_plan()
        profile = FaultProfile(boot_failure_prob=0.3, api_error_prob=0.3)
        result = PlanExecutor(profile).execute(plan, seed=3)
        assert result.completed
        # Recovery costs wall-clock (backoff) but never money.
        assert result.total_time >= plan.total_runtime
        assert result.total_cost == pytest.approx(plan.total_cost, rel=1e-12)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            ExecutionPolicy(max_preemptions_per_stage=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(spot_discount=0.0)
        with pytest.raises(ValueError):
            FaultProfile(boot_failure_prob=1.5)


#: A rate that preempts a 60s checkpoint segment with probability ~0.98.
RECLAIM_STORM = FaultProfile(
    spot_interrupt_rate_per_hour=240.0,
    checkpoint_interval_seconds=60.0,
)


class TestDegradation:
    def _run(self, deadline, **policy_kwargs):
        plan, menus = _menus_and_plan(
            spot_stages={EDAStage.PLACEMENT, EDAStage.ROUTING}
        )
        policy = ExecutionPolicy(
            max_preemptions_per_stage=2,
            timeout_stretch=None,
            spot_discount=DISCOUNT,
            **policy_kwargs,
        )
        result = PlanExecutor(RECLAIM_STORM, policy).execute(
            plan, deadline_seconds=deadline, seed=1, stage_options=menus
        )
        return plan, result

    def test_fallback_to_on_demand_twin_and_replan(self):
        plan, result = self._run(deadline=20_000.0)
        trace = result.trace
        assert result.completed
        assert trace.count(EventKind.FALLBACK) >= 1
        fallen = [r for r in result.stage_records if r.fell_back]
        assert fallen
        for rec in fallen:
            # The fallback VM is the catalog on-demand twin, not a spot shape.
            assert not is_spot_vm(rec.vm)
            assert rec.preemptions <= 2
        # Fallback triggered a re-plan of the remaining stages, and the
        # degraded flow fled spot entirely: no spot VM runs after the
        # first fallback event.
        assert result.replanned and result.replan_feasible
        assert trace.count(EventKind.REPLAN) >= 1
        fallback_seq = trace.of_kind(EventKind.FALLBACK)[0].seq
        for e in trace.of_kind(EventKind.STAGE_START):
            if e.seq > fallback_seq:
                assert not e.vm.endswith(SPOT_SUFFIX)
        assert result.met_deadline

    def test_infeasible_replan_is_reported_not_raised(self):
        plan, result = self._run(deadline=plan_deadline_too_tight())
        assert result.replanned
        assert not result.replan_feasible
        replans = result.trace.of_kind(EventKind.REPLAN)
        assert replans and replans[0].get("feasible") is False
        # The flow still finishes (on the original assignments) and the
        # miss is visible, not hidden.
        assert result.completed
        assert not result.met_deadline

    def test_fallback_without_menus_reconstructs_twin_from_discount(self):
        plan, _ = _menus_and_plan(spot_stages={EDAStage.ROUTING})
        policy = ExecutionPolicy(
            max_preemptions_per_stage=1, timeout_stretch=None,
            spot_discount=DISCOUNT,
        )
        result = PlanExecutor(RECLAIM_STORM, policy).execute(plan, seed=1)
        rec = next(r for r in result.stage_records if r.fell_back)
        spot_price = _spot_twin(_vm("od2", 2.0)).price_per_hour
        assert rec.vm.name == "od2"
        assert rec.vm.price_per_hour == pytest.approx(spot_price / DISCOUNT)

    def test_timeout_budget_triggers_early_fallback(self):
        plan, menus = _menus_and_plan(spot_stages={EDAStage.ROUTING})
        policy = ExecutionPolicy(
            max_preemptions_per_stage=None,
            timeout_stretch=1.0,
            spot_discount=DISCOUNT,
        )
        # Deadline == nominal: zero slack, so the routing stage's budget is
        # exactly its nominal runtime and the first preemption beyond it
        # falls back even though preemptions are uncapped.
        result = PlanExecutor(RECLAIM_STORM, policy).execute(
            plan, deadline_seconds=plan.total_runtime, seed=1,
            stage_options=menus,
        )
        trace = result.trace
        assert trace.count(EventKind.TIMEOUT) >= 1
        fallback = trace.of_kind(EventKind.FALLBACK)
        assert fallback and fallback[0].get("reason") == "timeout"
        assert result.completed


def plan_deadline_too_tight():
    """A deadline the nominal plan meets with no slack to lose."""
    plan, _ = _menus_and_plan()
    return plan.total_runtime + 1.0


class TestConvergence:
    """Monte-Carlo executor mean vs the closed-form spot model."""

    @pytest.mark.parametrize(
        "runtime,rate,interval",
        [(800.0, 1.5, 120.0), (1000.0, 2.0, None), (600.0, 0.5, 300.0)],
    )
    def test_mean_matches_closed_form_within_5pct(self, runtime, rate, interval):
        times = simulate_spot_completion_times(
            runtime, rate, interval, trials=600, seed=0
        )
        assert len(times) == 600
        assert min(times) >= runtime * (1.0 - 1e-9)
        expected = spot_expected_runtime(runtime, rate, interval)
        mean = sum(times) / len(times)
        assert abs(mean - expected) <= 0.05 * expected

    def test_zero_rate_degenerates_to_nominal(self):
        times = simulate_spot_completion_times(500.0, 0.0, None, trials=5)
        assert times == [500.0] * 5
