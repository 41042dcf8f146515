"""Job runners: map a job kind onto the characterize/plan/execute pipeline.

The default :class:`PipelineRunner` understands six kinds:

* ``flow``     — run the four-stage flow, record the modelled runtime
  grid (the characterization step);
* ``plan``     — flow runtimes -> MCKP item classes -> optimal selection
  under the request deadline (the optimization step);
* ``execute``  — plan, then run the selected deployment on the
  fault-injecting :class:`~repro.cloud.executor.PlanExecutor` seeded by
  the *job's* seed (billing counters land in the job's scoped registry);
* ``pipeline`` — flow + plan + execute in one job, cooperative
  checkpoints between stages;
* ``sleep``    — ``params["steps"]`` checkpoint rounds with no real
  work: the churn kind the cancellation/timeout/slot-leak property
  tests hammer 1k times;
* ``fleet``    — plan a seeded synthetic fleet
  (:func:`~repro.fleet.synthetic_fleet` sized by ``params``) through a
  batched :class:`~repro.fleet.FleetPlanner`; returns the amortization
  stats and fleet totals.

Flow results are memoized on ``(design, scale, flow_seed)`` — many jobs
in one session characterize the same design, and the flow is by far the
most expensive step.  The lock is held across lookup *and* build, so
concurrent thread-mode jobs on one key build the flow once (the build
is pure Python under the GIL, so serializing it loses no overlap).
Results are plain JSON-safe dicts and, for fixed request seeds,
bit-deterministic — the service's determinism contract bottoms out
here.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional, Tuple

from ..cloud.executor import ExecutionPolicy, PlanExecutor
from ..cloud.faults import FaultProfile
from ..core.characterize import DEFAULT_VCPU_LEVELS
from ..core.optimize import Selection, build_stage_options, solve_mckp_dp
from ..eda.flow import FlowResult, FlowRunner
from ..netlist import benchmarks
from ..obs import get_metrics
from .errors import InvalidRequestError
from .jobs import Job, JobContext

__all__ = ["PipelineRunner"]


class PipelineRunner:
    """The default ``runner(job, ctx) -> dict`` for the worker pool."""

    def __init__(
        self,
        fault_profile: Optional[FaultProfile] = None,
        policy: Optional[ExecutionPolicy] = None,
    ):
        self.fault_profile = (
            fault_profile if fault_profile is not None else FaultProfile.calm()
        )
        self.policy = policy if policy is not None else ExecutionPolicy()
        self._flow_cache: Dict[Tuple[str, float, int], FlowResult] = {}
        self._lock = threading.Lock()

    def __call__(self, job: Job, ctx: JobContext) -> dict:
        kind = job.request.kind
        handler: Callable[[Job, JobContext], dict] = {
            "flow": self._run_flow,
            "plan": self._run_plan,
            "execute": self._run_execute,
            "pipeline": self._run_pipeline,
            "sleep": self._run_sleep,
            "fleet": self._run_fleet,
        }.get(kind)
        if handler is None:
            raise InvalidRequestError(f"unknown job kind {kind!r}", kind=kind)
        return handler(job, ctx)

    # -- shared steps -----------------------------------------------------

    def _flow(self, job: Job) -> FlowResult:
        req = job.request
        key = (req.design, req.scale, req.flow_seed)
        with self._lock:
            flow = self._flow_cache.get(key)
            if flow is None:
                runner = FlowRunner(seed=req.flow_seed)
                aig = benchmarks.build(req.design, req.scale)
                flow = runner.run(aig, seed=req.flow_seed)
                self._flow_cache[key] = flow
        return flow

    @staticmethod
    def _runtime_grid(flow: FlowResult) -> Dict[str, Dict[int, float]]:
        return {
            stage.value: {v: res.runtime(v) for v in DEFAULT_VCPU_LEVELS}
            for stage, res in flow.stages.items()
        }

    def _select(
        self, job: Job, flow: FlowResult
    ) -> Tuple[Optional[Selection], list, float]:
        """MCKP selection under the request deadline (or a safe default)."""
        runtimes = {
            stage: {v: res.runtime(v) for v in DEFAULT_VCPU_LEVELS}
            for stage, res in flow.stages.items()
        }
        options = build_stage_options(runtimes)
        deadline = job.request.params.get("deadline_seconds")
        if deadline is None:
            # Twice the all-cheapest makespan: always feasible.
            deadline = 2.0 * sum(s.cheapest.runtime_seconds for s in options)
        deadline = float(deadline)
        if deadline <= 0:
            raise InvalidRequestError(
                f"deadline_seconds must be positive, got {deadline!r}",
                deadline_seconds=deadline,
            )
        return solve_mckp_dp(options, deadline), options, deadline

    @staticmethod
    def _selection_doc(selection: Selection, deadline: float) -> dict:
        return {
            "feasible": True,
            "deadline_seconds": deadline,
            "total_runtime_seconds": selection.total_runtime,
            "total_cost": selection.total_cost,
            "choices": {
                stage.value: opt.label
                for stage, opt in sorted(
                    selection.choices.items(), key=lambda kv: kv[0].value
                )
            },
        }

    def _execute_selection(
        self, job: Job, selection: Selection, options, deadline: float
    ) -> dict:
        plan = selection.to_plan(job.request.design)
        executor = PlanExecutor(profile=self.fault_profile, policy=self.policy)
        outcome = executor.execute(
            plan,
            deadline_seconds=deadline * 4.0,
            seed=job.request.seed,
            stage_options=options,
        )
        metrics = get_metrics()
        metrics.gauge("service.job.total_cost").set(outcome.total_cost)
        metrics.gauge("service.job.sim_seconds").set(outcome.total_time)
        met_deadline = bool(outcome.met_deadline)
        metrics.gauge("service.job.met_deadline").set(float(met_deadline))
        metrics.gauge("service.job.deadline_seconds").set(deadline * 4.0)
        return {
            "completed": outcome.completed,
            "replanned": outcome.replanned,
            "met_deadline": met_deadline,
            "total_time": outcome.total_time,
            "total_cost": outcome.total_cost,
            "billed_seconds": outcome.trace.billed_seconds,
            "billed_cost": outcome.trace.billed_cost,
        }

    # -- kinds ------------------------------------------------------------

    def _run_flow(self, job: Job, ctx: JobContext) -> dict:
        flow = self._flow(job)
        ctx.checkpoint()
        grid = self._runtime_grid(flow)
        metrics = get_metrics()
        for stage, per_vcpu in grid.items():
            for vcpus, runtime in per_vcpu.items():
                metrics.gauge(
                    f"flow.runtime_seconds.{stage}.{vcpus}v"
                ).set(runtime)
        return {"kind": "flow", "design": flow.design, "runtimes": grid}

    def _run_plan(self, job: Job, ctx: JobContext) -> dict:
        flow = self._flow(job)
        ctx.checkpoint()
        selection, _, deadline = self._select(job, flow)
        if selection is None:
            return {
                "kind": "plan",
                "feasible": False,
                "deadline_seconds": deadline,
            }
        return {"kind": "plan", **self._selection_doc(selection, deadline)}

    def _run_execute(self, job: Job, ctx: JobContext) -> dict:
        flow = self._flow(job)
        ctx.checkpoint()
        selection, options, deadline = self._select(job, flow)
        if selection is None:
            return {
                "kind": "execute",
                "feasible": False,
                "deadline_seconds": deadline,
            }
        ctx.checkpoint()
        doc = self._execute_selection(job, selection, options, deadline)
        return {"kind": "execute", "feasible": True, **doc}

    def _run_pipeline(self, job: Job, ctx: JobContext) -> dict:
        flow = self._flow(job)
        ctx.checkpoint()
        selection, options, deadline = self._select(job, flow)
        ctx.checkpoint()
        plan_doc = (
            self._selection_doc(selection, deadline)
            if selection is not None
            else {"feasible": False, "deadline_seconds": deadline}
        )
        exec_doc = (
            self._execute_selection(job, selection, options, deadline)
            if selection is not None
            else None
        )
        return {
            "kind": "pipeline",
            "runtimes": self._runtime_grid(flow),
            "plan": plan_doc,
            "execution": exec_doc,
        }

    def _run_sleep(self, job: Job, ctx: JobContext) -> dict:
        steps = int(job.request.params.get("steps", 1))
        if steps < 0:
            raise InvalidRequestError(
                f"sleep steps must be >= 0, got {steps}", steps=steps
            )
        done = 0
        for _ in range(steps):
            ctx.checkpoint()
            done += 1
        return {"kind": "sleep", "steps": done}

    def _run_fleet(self, job: Job, ctx: JobContext) -> dict:
        from ..fleet import FleetPlanner, synthetic_fleet

        params = job.request.params
        flows = int(params.get("flows", 2000))
        menus = int(params.get("menus", 8))
        mode = params.get("mode", "approx")
        if flows < 1 or menus < 1:
            raise InvalidRequestError(
                f"fleet flows/menus must be >= 1, got {flows}/{menus}",
                flows=flows,
                menus=menus,
            )
        if mode not in ("exact", "approx"):
            raise InvalidRequestError(
                f"fleet mode must be 'exact' or 'approx', got {mode!r}",
                mode=mode,
            )
        menu_map, specs = synthetic_fleet(
            seed=job.request.seed, flows=flows, menus=menus
        )
        ctx.checkpoint()
        planner = FleetPlanner(mode=mode)
        for menu_id in sorted(menu_map):
            planner.register_menu(menu_id, menu_map[menu_id])
        plan = planner.plan(specs)
        ctx.checkpoint()
        metrics = get_metrics()
        metrics.gauge("service.fleet.total_cost").set(plan.total_cost)
        metrics.gauge("service.fleet.feasible_flows").set(
            plan.stats.feasible_flows
        )
        return {
            "kind": "fleet",
            "mode": mode,
            "flows": plan.stats.flows,
            "feasible_flows": plan.stats.feasible_flows,
            "infeasible_flows": plan.stats.infeasible_flows,
            "groups": plan.stats.groups,
            "group_hits": plan.stats.group_hits,
            "pruned_options": plan.stats.pruned_options,
            "total_cost": plan.total_cost,
            "max_certified_gap": plan.max_certified_gap,
        }
