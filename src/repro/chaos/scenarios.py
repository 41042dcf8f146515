"""Named chaos suites: plan, execute, storm the service, check the bound.

Each :class:`ChaosScenario` fixes one correlated-failure shape at full
severity — which knob of :class:`~repro.chaos.processes.ChaosSpec` it
turns up is the scenario's personality:

* ``az_reclaim_storm`` — frequent AZ-wide reclaims; co-located flows and
  service jobs go down together and must fail over / requeue.
* ``regime_flap`` — the calm/storm regime oscillates quickly with a
  vicious storm multiplier; preemption hazard whipsaws mid-stage.
* ``noisy_region`` — the home region is packed with loud neighbours;
  stragglers stretch runtimes without killing anything.
* ``transfer_partition`` — huge checkpoints make every cross-region
  failover pay a painful egress bill.

:func:`run_scenario` is the one entry point: it builds the MCKP plan
once (severity-independent, so every severity of one scenario executes
the *same* plan), runs it under the scenario's
:class:`~repro.chaos.engine.ChaosPlanExecutor`, re-runs it at severity
zero for the baseline, prices the
:func:`~repro.chaos.engine.degradation_bound`, and drives a storm
session through the service layer.  The result's :meth:`trace_dump`
is the byte-stable artifact CI ``cmp``\\ s across repeat runs.

The storm session is a plain :func:`~repro.service.api.run_session`.
Jobs are placed into availability zones by crc32 of their submission
index (:func:`job_zone`), and :func:`plan_evictions` evicts every job
whose zone the scenario's AZ-reclaim process strikes inside the session
window.  At severity zero nothing is struck, so the session equals a
plain ``run_session`` over the same requests — the service half of the
zero-severity anchor.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence, Tuple

from ..cloud.events import EventKind
from ..cloud.executor import ExecutionPolicy, ExecutionResult
from ..cloud.faults import FaultProfile
from ..cloud.tenancy import NeighborLoad
from ..eda.job import EDAStage
from ..obs.store import RunRecord
from ..service.api import (
    ServiceConfig,
    SessionResult,
    run_session,
    seeded_job_mix,
    session_log,
)
from ..service.jobs import JobRequest
from .engine import ChaosPlanExecutor, DegradationBound, degradation_bound
from .processes import ChaosInjector, ChaosSpec
from .topology import CloudTopology, default_topology

__all__ = [
    "ChaosScenario",
    "SCENARIOS",
    "ScenarioResult",
    "scenario_names",
    "run_scenario",
    "scenario_to_run",
    "plan_evictions",
]

#: Nominal stage runtimes (seconds) at the paper's 4/8-vCPU points —
#: the fixed workload every scenario plans against.
_STAGE_RUNTIMES: Dict[EDAStage, Dict[int, float]] = {
    EDAStage.SYNTHESIS: {4: 1800.0, 8: 1200.0},
    EDAStage.PLACEMENT: {4: 3600.0, 8: 2400.0},
    EDAStage.ROUTING: {4: 5400.0, 8: 3600.0},
    EDAStage.STA: {4: 900.0, 8: 600.0},
}

#: Spot reclaim rate the *planner* prices (deliberately severity-blind:
#: the plan must be identical across a scenario's severity sweep).
_PLANNING_INTERRUPT_RATE = 3.0


@dataclass(frozen=True)
class ChaosScenario:
    """One named correlated-failure suite at full severity."""

    name: str
    description: str
    spec: ChaosSpec
    policy: ExecutionPolicy = field(default_factory=ExecutionPolicy)
    #: Deadline as a multiple of the all-fastest on-demand critical path.
    deadline_factor: float = 1.8
    #: Service-session size for the storm half of the scenario.
    jobs: int = 8

    def __post_init__(self) -> None:
        if self.deadline_factor < 1.0:
            raise ValueError(
                f"deadline_factor must be >= 1, got {self.deadline_factor!r}"
            )
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs!r}")
        if self.policy.max_preemptions_per_stage is None:
            raise ValueError(
                "scenario policies must be bounded "
                "(max_preemptions_per_stage is None)"
            )


def _scenario_specs() -> Dict[str, ChaosScenario]:
    storm = FaultProfile.storm()
    return {
        "az_reclaim_storm": ChaosScenario(
            name="az_reclaim_storm",
            description=(
                "AZ-wide reclaims every ~10 simulated minutes dominate a "
                "tame idiosyncratic hazard: co-located capacity vanishes "
                "together, forcing failover and requeues"
            ),
            spec=ChaosSpec(
                profile=replace(storm, spot_interrupt_rate_per_hour=1.5),
                az_reclaim_rate_per_hour=6.0,
            ),
        ),
        "regime_flap": ChaosScenario(
            name="regime_flap",
            description=(
                "calm/storm regime flapping on ~10/5 minute dwells with a "
                "10x storm hazard multiplier; no AZ events"
            ),
            spec=ChaosSpec(
                profile=storm,
                storm_rate_multiplier=10.0,
                mean_calm_seconds=600.0,
                mean_storm_seconds=300.0,
                az_reclaim_rate_per_hour=0.0,
            ),
        ),
        "noisy_region": ChaosScenario(
            name="noisy_region",
            description=(
                "home region saturated by loud neighbours: stragglers "
                "stretch runtimes; little outright capacity loss"
            ),
            spec=ChaosSpec(
                profile=replace(
                    storm,
                    spot_interrupt_rate_per_hour=4.0,
                    straggler_prob=0.6,
                ),
                az_reclaim_rate_per_hour=0.1,
                region_loads={
                    "us-east": NeighborLoad(cpu=0.9, memory_bandwidth=0.9),
                    "us-west": NeighborLoad(cpu=0.4, memory_bandwidth=0.3),
                },
            ),
        ),
        "transfer_partition": ChaosScenario(
            name="transfer_partition",
            description=(
                "50 GB checkpoints: every cross-region failover pays a "
                "heavy egress bill, stressing the transfer accounting"
            ),
            spec=ChaosSpec(
                profile=storm,
                az_reclaim_rate_per_hour=1.0,
                checkpoint_gb=50.0,
            ),
        ),
    }


#: The named suites ``repro chaos --scenario`` exposes.
SCENARIOS: Dict[str, ChaosScenario] = _scenario_specs()


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(SCENARIOS))


def _build_workload(scenario: ChaosScenario, topology: CloudTopology):
    """The scenario's fixed (menu, plan, deadline) — severity-blind."""
    from ..core.optimize import build_stage_options, solve_mckp_dp

    base = build_stage_options(_STAGE_RUNTIMES, catalog=topology.catalog)
    market = topology.spot_market(
        topology.home,
        interrupt_rate_per_hour=_PLANNING_INTERRUPT_RATE,
        checkpoint_interval_seconds=(
            scenario.spec.profile.checkpoint_interval_seconds
        ),
    )
    menu = market.augment_stage_options(base)
    fastest = sum(
        min(o.runtime_seconds for o in so.options) for so in base
    )
    deadline = scenario.deadline_factor * fastest
    selection = solve_mckp_dp(menu, deadline)
    if selection is None:  # deadline_factor >= 1 makes this unreachable
        raise RuntimeError(
            f"scenario {scenario.name!r}: planning deadline infeasible"
        )
    plan = selection.to_plan(design=scenario.name)
    return menu, plan, deadline


def _placement(
    scenario: ChaosScenario, topology: CloudTopology, seed: int
) -> Dict[str, str]:
    """Deterministic stage -> AZ placement from the crc32 seed stream."""
    zones = topology.zones
    out: Dict[str, str] = {}
    for stage in EDAStage.ordered():
        key = f"{seed}:stage-az:{scenario.name}:{stage.value}"
        out[stage.value] = zones[zlib.crc32(key.encode()) % len(zones)]
    return out


def job_zone(topology: CloudTopology, seed: int, index: int) -> str:
    """Deterministic AZ placement of the ``index``-th submitted job."""
    zones = topology.zones
    return zones[zlib.crc32(f"{seed}:job-az:{index}".encode()) % len(zones)]


def plan_evictions(
    requests: Sequence[JobRequest],
    spec: ChaosSpec,
    severity: float,
    topology: CloudTopology,
    seed: int,
    window_seconds: float = 4 * 3600.0,
) -> Dict[int, str]:
    """Map submission index -> eviction reason for storm-struck jobs.

    A job is struck when its deterministic zone placement suffers an
    AZ-wide reclaim inside the session window.  All co-located jobs go
    down together — that is the correlated part.  Empty at severity 0.
    """
    injector = ChaosInjector(spec, severity, topology, seed=seed)
    struck = {az for _, az in injector.az_reclaims_until(window_seconds)}
    out: Dict[int, str] = {}
    if not struck:
        return out
    for index in range(len(requests)):
        az = job_zone(topology, seed, index)
        if az in struck:
            out[index] = f"az_reclaim:{az}"
    return out


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, oracle-checkable."""

    scenario: ChaosScenario
    severity: float
    seed: int
    execution: ExecutionResult
    baseline: ExecutionResult
    bound: DegradationBound
    storm: SessionResult
    deadline_seconds: float

    @property
    def time_overrun(self) -> float:
        return self.execution.total_time - self.baseline.total_time

    @property
    def cost_overrun(self) -> float:
        return self.execution.total_cost - self.baseline.total_cost

    @property
    def within_bounds(self) -> bool:
        """Completed runs must sit inside the degradation bound.

        An aborted run (retries exhausted) has no meaningful overrun;
        the oracle audits abort legitimacy from the trace instead.
        """
        if not self.execution.completed:
            return True
        return self.bound.dominates(self.time_overrun, self.cost_overrun)

    @property
    def failovers(self) -> int:
        return self.execution.trace.count(EventKind.REGION_FAILOVER)

    @property
    def az_reclaims(self) -> int:
        return self.execution.trace.count(EventKind.AZ_RECLAIM)

    def trace_dump(self) -> str:
        """Byte-stable replay artifact: traces, service log, verdict.

        Same (scenario, severity, seed) ⇒ same bytes; CI runs every
        scenario twice and ``cmp``\\ s the dumps.
        """
        lines = [
            f"# scenario={self.scenario.name} severity={self.severity!r} "
            f"seed={self.seed} deadline={self.deadline_seconds!r}",
            "# execution",
            self.execution.trace.to_jsonl(),
            "# baseline",
            self.baseline.trace.to_jsonl(),
            "# service",
        ]
        lines.extend(session_log(self.storm.service))
        lines.append(
            f"# verdict completed={self.execution.completed} "
            f"time_overrun={self.time_overrun!r} "
            f"cost_overrun={self.cost_overrun!r} "
            f"bound_time={self.bound.time_overrun!r} "
            f"bound_cost={self.bound.cost_overrun!r} "
            f"within_bounds={self.within_bounds}"
        )
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        status = "COMPLETE" if self.execution.completed else "FAILED"
        verdict = "within bound" if self.within_bounds else "BOUND VIOLATED"
        return (
            f"{self.scenario.name} severity={self.severity:g} "
            f"seed={self.seed}: {status}, "
            f"overrun +{self.time_overrun:,.1f}s / "
            f"+${self.cost_overrun:.4f} vs bound "
            f"{self.bound.time_overrun:,.1f}s / "
            f"${self.bound.cost_overrun:.4f} ({verdict}); "
            f"{self.execution.trace.preemptions()} preemptions, "
            f"{self.az_reclaims} az reclaims, {self.failovers} failovers, "
            f"{len(self.storm.evictions)} service evictions"
        )


def run_scenario(
    name: str,
    severity: float = 1.0,
    seed: int = 0,
    topology: Optional[CloudTopology] = None,
) -> ScenarioResult:
    """Run one named suite end to end at ``severity``.

    The plan, menu, deadline and placement depend only on
    ``(scenario, seed)`` — never on severity — so a severity sweep
    degrades one fixed workload rather than re-planning around the
    chaos.
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(
            f"unknown chaos scenario {name!r}; known: {known}"
        ) from None
    topology = topology if topology is not None else default_topology()
    menu, plan, deadline = _build_workload(scenario, topology)
    placement = _placement(scenario, topology, seed)

    def _execute(sev: float) -> ExecutionResult:
        executor = ChaosPlanExecutor(
            scenario.spec,
            sev,
            topology=topology,
            placement=placement,
            policy=scenario.policy,
        )
        return executor.execute(
            plan, deadline_seconds=deadline, seed=seed, stage_options=menu
        )

    execution = _execute(severity)
    baseline = _execute(0.0)
    bound = degradation_bound(
        plan,
        scenario.policy,
        scenario.spec,
        topology,
        severity,
        stage_options=menu,
    )

    requests = seeded_job_mix(
        seed, scenario.jobs, kinds=("sleep",), design=scenario.name
    )
    storm = run_session(
        requests,
        ServiceConfig(workers=2),
        evict=plan_evictions(
            requests, scenario.spec, severity, topology, seed
        ),
    )
    return ScenarioResult(
        scenario=scenario,
        severity=severity,
        seed=seed,
        execution=execution,
        baseline=baseline,
        bound=bound,
        storm=storm,
        deadline_seconds=deadline,
    )


def scenario_to_run(
    result: ScenarioResult, rev: str, timestamp_utc: str
) -> RunRecord:
    """Convert one scenario run into a ``repro-runs/1`` store record.

    ``kind="chaos.scenario"``, ``scale`` carries the severity and
    ``labels["design"]`` the scenario name, so the dashboard's
    deterministic-drift grouping — (kind, seed, scale, design) — pins
    each (scenario, seed, severity) cell to bit-stable gauges.
    """
    gauges = {
        "chaos.scenario.total_cost": result.execution.total_cost,
        "chaos.scenario.sim_seconds": result.execution.total_time,
        "chaos.scenario.overrun_time": result.time_overrun,
        "chaos.scenario.overrun_cost": result.cost_overrun,
        "chaos.scenario.bound_time": result.bound.time_overrun,
        "chaos.scenario.bound_cost": result.bound.cost_overrun,
        "chaos.scenario.preemptions": float(
            result.execution.trace.preemptions()
        ),
        "chaos.scenario.az_reclaims": float(result.az_reclaims),
        "chaos.scenario.failovers": float(result.failovers),
        "chaos.scenario.evictions": float(len(result.storm.evictions)),
    }
    labels: Dict[str, object] = {
        "design": result.scenario.name,
        "scenario": result.scenario.name,
        "completed": result.execution.completed,
        "within_bounds": result.within_bounds,
        "deadline_seconds": result.deadline_seconds,
    }
    return RunRecord(
        kind="chaos.scenario",
        rev=rev,
        seed=result.seed,
        timestamp_utc=timestamp_utc,
        scale=result.severity,
        labels=labels,
        metrics={"counters": {}, "gauges": gauges, "histograms": {}},
    )
