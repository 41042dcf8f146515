"""Fault-tolerant execution of deployment plans (discrete-event simulated).

The MCKP solver produces a cost-optimal :class:`DeploymentPlan`; this
module *runs* it, stage by stage, on a simulated cloud where things go
wrong the way they do in production EDA flows: spot instances get
reclaimed, VMs fail to boot, the control plane throws transient errors,
and some hosts straggle.  Robustness policy is first-class:

* **Retry with backoff** — provisioning/API failures retry up to
  ``RetryPolicy.max_retries`` times with exponential backoff and
  deterministic seeded jitter.
* **Checkpoint/resume** — spot preemptions lose only the work since the
  last checkpoint, with semantics identical to
  :func:`~repro.cloud.spot.spot_expected_runtime` (the ``convergence``
  oracle asserts the simulated mean converges to that closed form).
* **Graceful degradation** — after ``max_preemptions_per_stage``
  reclaims (or a blown per-stage timeout budget derived from the plan's
  deadline slack), a spot stage falls back to its on-demand twin and the
  *remaining* stages are re-planned with
  :func:`~repro.core.optimize.solve_mckp_dp` under the residual deadline.
* **Replayable traces** — every decision lands in an
  :class:`~repro.cloud.events.ExecutionTrace`; the same seed reproduces
  the run byte-for-byte, and the verification oracles audit causality,
  retry bounds, and billing against the trace.

Billing follows the cloud model: every VM lease segment (completed or
preempted) is billed per whole second on the VM it ran on, so the final
cost is exactly the sum of billed segments.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from ..eda.job import EDAStage
from ..obs import get_logger, get_metrics, get_tracer
from ..obs.log import crash_scope
from .events import EventKind, ExecutionTrace
from .faults import FaultInjector, FaultProfile
from .instance import InstanceFamily, VMConfig
from .provisioner import DeploymentPlan, StageAssignment

__all__ = [
    "RetryPolicy",
    "ExecutionPolicy",
    "BilledSegment",
    "StageRecord",
    "ExecutionResult",
    "PlanExecutor",
    "simulate_spot_completion_times",
]

#: Slop below which remaining work counts as done (floating-point guard).
_WORK_EPS = 1e-9

#: Name suffix marking spot-priced VM shapes (see ``SpotMarket``).
SPOT_SUFFIX = ".spot"


def is_spot_vm(vm: VMConfig) -> bool:
    """Spot shapes are the ``*.spot`` twins ``SpotMarket`` mints."""
    return vm.name.endswith(SPOT_SUFFIX)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter."""

    max_retries: int = 3
    backoff_base_seconds: float = 2.0
    backoff_multiplier: float = 2.0
    backoff_max_seconds: float = 120.0
    jitter_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_seconds <= 0 or self.backoff_max_seconds <= 0:
            raise ValueError("backoff durations must be positive")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff multiplier must be >= 1")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter fraction must be in [0, 1]")

    def backoff_seconds(self, attempt: int, jitter_draw: float) -> float:
        """Sleep before retry ``attempt`` (0-based), with seeded jitter."""
        base = min(
            self.backoff_base_seconds * self.backoff_multiplier**attempt,
            self.backoff_max_seconds,
        )
        return base * (1.0 + self.jitter_fraction * jitter_draw)


@dataclass(frozen=True)
class ExecutionPolicy:
    """The executor's robustness policy, all knobs in one place.

    Attributes
    ----------
    retry:
        Provisioning/API retry policy.
    max_preemptions_per_stage:
        After this many spot reclaims on one stage, fall back to the
        on-demand twin.  ``None`` disables fallback (the convergence
        harness needs pure restart-forever semantics).
    timeout_stretch:
        A spot stage whose wall-clock exceeds
        ``stretch * nominal + its share of the deadline slack`` falls back
        early even below the preemption cap.  ``None`` disables timeouts.
    replan_on_fallback:
        Re-run the MCKP DP on the remaining stages under the residual
        deadline after a fallback (requires ``stage_options``).
    replan_excludes_spot:
        Degraded flows flee to reliability: drop spot options when
        re-planning.
    spot_discount:
        Spot-to-on-demand price ratio used to reconstruct the on-demand
        twin when no catalog option is available.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    max_preemptions_per_stage: Optional[int] = 3
    timeout_stretch: Optional[float] = 4.0
    replan_on_fallback: bool = True
    replan_excludes_spot: bool = True
    spot_discount: float = 0.3

    def __post_init__(self) -> None:
        if (
            self.max_preemptions_per_stage is not None
            and self.max_preemptions_per_stage < 1
        ):
            raise ValueError("max_preemptions_per_stage must be >= 1 or None")
        if self.timeout_stretch is not None and self.timeout_stretch < 1.0:
            raise ValueError("timeout_stretch must be >= 1 or None")
        if not 0.0 < self.spot_discount <= 1.0:
            raise ValueError("spot_discount must be in (0, 1]")

    @classmethod
    def unbounded(cls) -> "ExecutionPolicy":
        """No fallback, no timeouts — pure checkpoint/restart semantics.

        This is the regime :func:`~repro.cloud.spot.spot_expected_runtime`
        prices, so it is what the convergence oracle executes.
        """
        return cls(max_preemptions_per_stage=None, timeout_stretch=None)


@dataclass(frozen=True)
class BilledSegment:
    """One billed VM lease: a completed or preempted run interval."""

    stage: str
    vm: str
    seconds: float
    cost: float


@dataclass
class StageRecord:
    """Per-stage execution outcome."""

    stage: EDAStage
    vm: VMConfig
    attempts: int = 1
    preemptions: int = 0
    wall_seconds: float = 0.0
    cost: float = 0.0
    fell_back: bool = False
    committed: bool = False


@dataclass
class ExecutionResult:
    """Everything one execution produced, trace included."""

    plan: DeploymentPlan
    deadline_seconds: Optional[float]
    seed: int
    trace: ExecutionTrace
    segments: List[BilledSegment] = field(default_factory=list)
    stage_records: List[StageRecord] = field(default_factory=list)
    completed: bool = False
    replanned: bool = False
    replan_feasible: bool = True
    total_time: float = 0.0
    total_cost: float = 0.0

    @property
    def met_deadline(self) -> bool:
        if not self.completed:
            return False
        if self.deadline_seconds is None:
            return True
        return self.total_time <= self.deadline_seconds * (1.0 + 1e-9)

    def summary(self) -> str:
        status = "COMPLETE" if self.completed else "FAILED"
        lines = [
            f"execution of {self.plan.design} (seed={self.seed}): {status} "
            f"in {self.total_time:,.1f}s for ${self.total_cost:.4f}"
        ]
        if self.deadline_seconds is not None:
            verdict = "met" if self.met_deadline else "MISSED"
            lines[0] += f" — deadline {self.deadline_seconds:,.0f}s {verdict}"
        for rec in self.stage_records:
            notes = []
            if rec.preemptions:
                notes.append(f"{rec.preemptions} preemptions")
            if rec.attempts > 1:
                notes.append(f"{rec.attempts} boot attempts")
            if rec.fell_back:
                notes.append("fell back to on-demand")
            note = f" ({', '.join(notes)})" if notes else ""
            lines.append(
                f"  {rec.stage.display_name:10s} -> {rec.vm.name:12s} "
                f"{rec.wall_seconds:10,.1f}s  ${rec.cost:.4f}{note}"
            )
        if self.replanned:
            lines.append(
                "  re-planned remaining stages"
                + ("" if self.replan_feasible else " (INFEASIBLE residual deadline)")
            )
        return "\n".join(lines)


class _StageFailure(Exception):
    """Internal: a stage exhausted its retries; the flow aborts.

    Carries the simulated clock at abort time — backoff sleeps before the
    final failure are real elapsed time.
    """

    def __init__(self, stage: str, time: float):
        super().__init__(stage)
        self.stage = stage
        self.time = time


class PlanExecutor:
    """Deterministic discrete-event executor for deployment plans."""

    def __init__(
        self,
        profile: Optional[FaultProfile] = None,
        policy: Optional[ExecutionPolicy] = None,
    ):
        self.profile = profile if profile is not None else FaultProfile.none()
        self.policy = policy if policy is not None else ExecutionPolicy()

    # -- public API -------------------------------------------------------
    def execute(
        self,
        plan: DeploymentPlan,
        deadline_seconds: Optional[float] = None,
        seed: int = 0,
        stage_options: Optional[Sequence] = None,
        record_events: bool = True,
        trace_context: Optional[str] = None,
    ) -> ExecutionResult:
        """Run ``plan`` under the configured fault profile and policy.

        ``stage_options`` (a list of
        :class:`~repro.core.optimize.StageOptions`) enables mid-flight
        re-planning and catalog-accurate on-demand fallback; without it
        the on-demand twin is reconstructed from the spot discount.

        ``trace_context`` stitches every span this run opens into an
        end-to-end trace id (see :meth:`repro.obs.Tracer.trace`); when
        omitted, spans inherit whatever binding the caller already holds
        — the service layer binds one trace per job around the runner.

        Runs inside a flight-recorder :func:`crash_scope`: when an
        enabled logger is installed, any unhandled exception dumps the
        recent record tail, the open-span stack, and a metric snapshot
        to a replayable crash report before propagating.
        """
        with crash_scope("executor", seed), get_tracer().trace(trace_context):
            return self._execute(
                plan, deadline_seconds, seed, stage_options, record_events
            )

    def _execute(
        self,
        plan: DeploymentPlan,
        deadline_seconds: Optional[float],
        seed: int,
        stage_options: Optional[Sequence],
        record_events: bool,
    ) -> ExecutionResult:
        injector = FaultInjector(self.profile, seed)
        trace = ExecutionTrace(seed=seed, enabled=record_events)
        result = ExecutionResult(
            plan=plan, deadline_seconds=deadline_seconds, seed=seed, trace=trace
        )
        assignments = list(plan.assignments)
        budgets = self._timeout_budgets(assignments, deadline_seconds)
        trace.record(
            0.0,
            EventKind.FLOW_START,
            design=plan.design,
            stages=len(assignments),
            deadline=deadline_seconds if deadline_seconds is not None else "none",
        )
        tracer = get_tracer()
        log = get_logger()
        log.info(
            "executor.flow_start",
            design=plan.design,
            seed=seed,
            stages=len(assignments),
        )
        with tracer.span(
            "execute", design=plan.design, seed=seed, stages=len(assignments)
        ) as span:
            t = 0.0
            i = 0
            while i < len(assignments):
                a = assignments[i]
                try:
                    t, fell_back = self._run_stage(
                        a, t, budgets.get(a.stage), injector, trace, result,
                        stage_options,
                    )
                except _StageFailure as failure:
                    t = failure.time
                    trace.record(t, EventKind.FLOW_FAIL, stage=failure.stage)
                    tracer.event("flow_fail", stage=failure.stage, sim_time=t)
                    log.error(
                        "executor.flow_fail", stage=failure.stage, sim_time=t
                    )
                    result.completed = False
                    result.total_time = t
                    span.set_tags(completed=False, sim_seconds=t)
                    return result
                if (
                    fell_back
                    and self.policy.replan_on_fallback
                    and stage_options is not None
                    and deadline_seconds is not None
                    and i + 1 < len(assignments)
                ):
                    assignments = self._replan(
                        assignments, i, t, deadline_seconds, stage_options,
                        trace, result,
                    )
                i += 1
            result.completed = True
            result.total_time = t
            trace.record(
                t,
                EventKind.FLOW_COMPLETE,
                cost=result.total_cost,
                met_deadline=result.met_deadline,
            )
            log.info(
                "executor.flow_complete",
                sim_seconds=t,
                cost=result.total_cost,
                met_deadline=result.met_deadline,
            )
            span.set_tags(
                completed=True, sim_seconds=t, cost=result.total_cost
            )
        return result

    # -- internals --------------------------------------------------------
    def _timeout_budgets(
        self,
        assignments: Sequence[StageAssignment],
        deadline_seconds: Optional[float],
    ) -> Dict[EDAStage, float]:
        """Per-stage wall-clock budgets from the plan's deadline slack.

        Each stage may stretch to ``timeout_stretch x`` its nominal
        runtime plus its proportional share of whatever slack the plan
        left under the deadline.
        """
        stretch = self.policy.timeout_stretch
        if stretch is None or deadline_seconds is None:
            return {}
        nominal_total = sum(a.runtime_seconds for a in assignments)
        if nominal_total <= 0:
            return {}
        slack = max(0.0, deadline_seconds - nominal_total)
        return {
            a.stage: stretch * a.runtime_seconds
            + slack * (a.runtime_seconds / nominal_total)
            for a in assignments
        }

    def _provision(
        self,
        a: StageAssignment,
        t: float,
        injector: FaultInjector,
        trace: ExecutionTrace,
        rec: StageRecord,
    ) -> float:
        """Boot the stage's VM, retrying transient failures with backoff."""
        stage_key = a.stage.value
        retry = self.policy.retry
        attempt = 0
        while True:
            failure: Optional[EventKind] = None
            if injector.boot_fails(stage_key, attempt):
                failure = EventKind.BOOT_FAILURE
            elif injector.api_errors(stage_key, attempt):
                failure = EventKind.API_ERROR
            if failure is None:
                rec.attempts = attempt + 1
                return t
            trace.record(t, failure, stage=stage_key, vm=a.vm.name, attempt=attempt)
            get_tracer().event(
                failure.value, stage=stage_key, attempt=attempt, sim_time=t
            )
            get_logger().warn(
                f"executor.{failure.value}",
                stage=stage_key,
                vm=a.vm.name,
                attempt=attempt,
                sim_time=t,
            )
            if attempt >= retry.max_retries:
                trace.record(
                    t,
                    EventKind.STAGE_ABORT,
                    stage=stage_key,
                    vm=a.vm.name,
                    attempt=attempt,
                    reason="retries_exhausted",
                )
                get_tracer().event(
                    EventKind.STAGE_ABORT.value, stage=stage_key, sim_time=t
                )
                get_logger().error(
                    "executor.stage_abort",
                    stage=stage_key,
                    vm=a.vm.name,
                    attempt=attempt,
                    reason="retries_exhausted",
                    sim_time=t,
                )
                raise _StageFailure(stage_key, t)
            delay = retry.backoff_seconds(attempt, injector.jitter(stage_key, attempt))
            t += delay
            trace.record(
                t,
                EventKind.BACKOFF,
                stage=stage_key,
                vm=a.vm.name,
                attempt=attempt,
                seconds=delay,
            )
            get_tracer().event(
                EventKind.BACKOFF.value, stage=stage_key, attempt=attempt,
                seconds=delay, sim_time=t,
            )
            get_logger().debug(
                "executor.backoff",
                stage=stage_key,
                attempt=attempt,
                seconds=delay,
                sim_time=t,
            )
            attempt += 1

    def _bill(
        self,
        result: ExecutionResult,
        trace: ExecutionTrace,
        t: float,
        stage_key: str,
        vm: VMConfig,
        seconds: float,
        rec: StageRecord,
    ) -> None:
        cost = vm.cost(seconds)
        result.total_cost += cost
        rec.cost += cost
        metrics = get_metrics()
        metrics.counter("executor.billed_seconds").inc(seconds)
        metrics.counter("executor.billed_cost").inc(cost)
        if trace.enabled:
            result.segments.append(
                BilledSegment(stage=stage_key, vm=vm.name, seconds=seconds, cost=cost)
            )
            trace.record(
                t, EventKind.BILLED, stage=stage_key, vm=vm.name,
                seconds=seconds, cost=cost,
            )

    def _on_demand_twin(
        self, vm: VMConfig, stage: EDAStage, stage_options: Optional[Sequence]
    ) -> VMConfig:
        """The on-demand shape a preempted spot stage falls back to."""
        base_name = vm.name[: -len(SPOT_SUFFIX)] if is_spot_vm(vm) else vm.name
        if stage_options is not None:
            for so in stage_options:
                if so.stage != stage:
                    continue
                for opt in so.options:
                    if opt.vm.name == base_name:
                        return opt.vm
        return replace(
            vm,
            name=base_name,
            price_per_hour=vm.price_per_hour / self.policy.spot_discount,
        )

    def _run_stage(
        self,
        a: StageAssignment,
        t: float,
        budget: Optional[float],
        injector: FaultInjector,
        trace: ExecutionTrace,
        result: ExecutionResult,
        stage_options: Optional[Sequence],
    ):
        """Execute one stage; returns ``(new_time, fell_back)``."""
        stage_key = a.stage.value
        rec = StageRecord(stage=a.stage, vm=a.vm)
        result.stage_records.append(rec)
        stage_t0 = t
        trace.record(t, EventKind.STAGE_START, stage=stage_key, vm=a.vm.name,
                     nominal=a.runtime_seconds)
        with get_tracer().span(
            f"stage.{stage_key}", stage=stage_key, vm=a.vm.name,
            nominal=a.runtime_seconds,
        ) as span:
            t = self._provision(a, t, injector, trace, rec)
            attempt = rec.attempts - 1

            factor = injector.straggler_factor(stage_key, attempt)
            effective = a.runtime_seconds * factor
            if factor > 1.0:
                trace.record(
                    t, EventKind.STRAGGLER, stage=stage_key, vm=a.vm.name,
                    attempt=attempt, factor=factor,
                )
                get_tracer().event(
                    EventKind.STRAGGLER.value, stage=stage_key, factor=factor,
                    sim_time=t,
                )

            spot = (
                is_spot_vm(a.vm)
                and self.profile.spot_interrupt_rate_per_hour > 0
            )
            fell_back = False
            if not spot:
                t += effective
                self._bill(result, trace, t, stage_key, a.vm, effective, rec)
            else:
                t, fell_back = self._run_spot(
                    a, t, stage_t0, budget, effective, attempt, injector,
                    trace, result, rec, stage_options,
                )
            rec.wall_seconds = t - stage_t0
            rec.committed = True
            trace.record(
                t, EventKind.STAGE_COMMIT, stage=stage_key, vm=rec.vm.name,
                wall=rec.wall_seconds, cost=rec.cost,
            )
            get_logger().debug(
                "executor.stage_commit",
                stage=stage_key,
                vm=rec.vm.name,
                wall=rec.wall_seconds,
                cost=rec.cost,
                sim_time=t,
            )
            span.set_tags(
                attempts=rec.attempts,
                preemptions=rec.preemptions,
                fell_back=rec.fell_back,
                sim_seconds=rec.wall_seconds,
                cost=rec.cost,
            )
        return t, fell_back

    def _run_spot(
        self,
        a: StageAssignment,
        t: float,
        stage_t0: float,
        budget: Optional[float],
        effective: float,
        attempt: int,
        injector: FaultInjector,
        trace: ExecutionTrace,
        result: ExecutionResult,
        rec: StageRecord,
        stage_options: Optional[Sequence],
    ):
        """Checkpoint/restart loop on a spot VM, with fallback degradation.

        Work advances segment by segment (segment length = checkpoint
        interval, or the whole job without checkpointing).  A preemption
        mid-segment loses that segment's progress and restarts it — the
        exact process :func:`spot_expected_runtime` takes the expectation
        of.  Re-provisioning after a reclaim is instant; provisioning
        latency is considered folded into the reclaim-rate model.
        """
        stage_key = a.stage.value
        interval = self.profile.checkpoint_interval_seconds
        cap = self.policy.max_preemptions_per_stage
        remaining = effective
        while remaining > _WORK_EPS:
            segment = remaining if interval is None else min(interval, remaining)
            draw = injector.time_to_preemption(stage_key, attempt)
            if draw >= segment:
                t += segment
                self._bill(result, trace, t, stage_key, a.vm, segment, rec)
                remaining -= segment
                if remaining > _WORK_EPS:
                    trace.record(
                        t, EventKind.CHECKPOINT, stage=stage_key, vm=a.vm.name,
                        done=effective - remaining, remaining=remaining,
                    )
                continue
            t += draw
            self._bill(result, trace, t, stage_key, a.vm, draw, rec)
            rec.preemptions += 1
            trace.record(
                t, EventKind.PREEMPTION, stage=stage_key, vm=a.vm.name,
                lost=draw, count=rec.preemptions,
            )
            get_tracer().event(
                EventKind.PREEMPTION.value, stage=stage_key, lost=draw,
                count=rec.preemptions, sim_time=t,
            )
            get_logger().warn(
                "executor.preemption",
                stage=stage_key,
                vm=a.vm.name,
                lost=draw,
                count=rec.preemptions,
                sim_time=t,
            )
            timed_out = budget is not None and (t - stage_t0) > budget
            if timed_out:
                trace.record(
                    t, EventKind.TIMEOUT, stage=stage_key, vm=a.vm.name,
                    budget=budget, elapsed=t - stage_t0,
                )
                get_tracer().event(
                    EventKind.TIMEOUT.value, stage=stage_key, sim_time=t
                )
            if timed_out or (cap is not None and rec.preemptions >= cap):
                od = self._on_demand_twin(a.vm, a.stage, stage_options)
                trace.record(
                    t, EventKind.FALLBACK, stage=stage_key, vm=od.name,
                    reason="timeout" if timed_out else "preemptions",
                    preemptions=rec.preemptions,
                )
                get_tracer().event(
                    EventKind.FALLBACK.value, stage=stage_key, vm=od.name,
                    reason="timeout" if timed_out else "preemptions",
                    sim_time=t,
                )
                get_logger().warn(
                    "executor.fallback",
                    stage=stage_key,
                    vm=od.name,
                    reason="timeout" if timed_out else "preemptions",
                    preemptions=rec.preemptions,
                    sim_time=t,
                )
                t += remaining
                self._bill(result, trace, t, stage_key, od, remaining, rec)
                rec.vm = od
                rec.fell_back = True
                return t, True
        return t, False

    def _replan(
        self,
        assignments: List[StageAssignment],
        i: int,
        t: float,
        deadline_seconds: float,
        stage_options: Sequence,
        trace: ExecutionTrace,
        result: ExecutionResult,
    ) -> List[StageAssignment]:
        """Re-optimize the not-yet-started stages under the residual deadline."""
        from ..core.optimize import StageOptions, solve_mckp_dp

        remaining_stages = {a.stage for a in assignments[i + 1 :]}
        menu: List[StageOptions] = []
        for so in stage_options:
            if so.stage not in remaining_stages:
                continue
            options = (
                [o for o in so.options if not is_spot_vm(o.vm)]
                if self.policy.replan_excludes_spot
                else list(so.options)
            )
            if options:
                menu.append(StageOptions(stage=so.stage, options=options))
        residual = deadline_seconds - t
        selection = (
            solve_mckp_dp(menu, residual)
            if residual >= 1.0 and len(menu) == len(remaining_stages)
            else None
        )
        result.replanned = True
        get_tracer().event(
            EventKind.REPLAN.value,
            feasible=selection is not None,
            residual=residual,
            sim_time=t,
        )
        if selection is None:
            result.replan_feasible = False
            trace.record(
                t, EventKind.REPLAN, feasible=False, residual=residual,
                stages=len(remaining_stages),
            )
            return assignments
        new_tail = [
            StageAssignment(
                stage=stage,
                vm=selection.choices[stage].vm,
                runtime_seconds=selection.choices[stage].runtime_seconds,
            )
            for stage in EDAStage.ordered()
            if stage in selection.choices
        ]
        trace.record(
            t, EventKind.REPLAN, feasible=True, residual=residual,
            stages=len(new_tail),
        )
        return assignments[: i + 1] + new_tail


def simulate_spot_completion_times(
    runtime_seconds: float,
    interrupt_rate_per_hour: float,
    checkpoint_interval_seconds: Optional[float] = None,
    trials: int = 500,
    seed: int = 0,
) -> List[float]:
    """Monte-Carlo completion times of one spot stage under the executor.

    Runs ``trials`` independent seeded executions of a single-stage spot
    plan with unbounded policy (no fallback, no timeout) and returns each
    run's wall-clock — the ``convergence`` oracle compares their mean
    against :func:`~repro.cloud.spot.spot_expected_runtime`.  Lean mode:
    traces and billed-segment objects are not materialized.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    vm = VMConfig(
        name=f"sim{SPOT_SUFFIX}",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=1.0,
    )
    plan = DeploymentPlan(design="spot-sim")
    plan.add(EDAStage.SYNTHESIS, vm, runtime_seconds)
    profile = FaultProfile(
        spot_interrupt_rate_per_hour=interrupt_rate_per_hour,
        checkpoint_interval_seconds=checkpoint_interval_seconds,
    )
    executor = PlanExecutor(profile=profile, policy=ExecutionPolicy.unbounded())
    times: List[float] = []
    for trial in range(trials):
        trial_seed = zlib.crc32(f"spot-sim:{seed}:{trial}".encode())
        outcome = executor.execute(plan, seed=trial_seed, record_events=False)
        times.append(outcome.total_time)
    return times
