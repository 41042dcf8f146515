"""Continuous fleet sessions: plan, tick, reprice, re-plan, execute.

Glues the three fleet pieces to the existing execution stack: a
:class:`~repro.fleet.planner.FleetPlanner` holds the amortized state, a
:class:`~repro.fleet.market.SpotMarketFeed` moves spot prices each tick,
and a :class:`~repro.cloud.executor.PlanExecutor` (the existing fault-
injecting engine, with its own mid-flight fallback/re-plan hooks fed the
*live* repriced menu) runs a slice of the fleet between ticks.  Flows
still pending when a tick lands are re-planned against the new prices —
the "preemption storm hits, the whole fleet re-plans" loop from the
ROADMAP.

Determinism: the session never reads a clock or unseeded RNG — per-flow
executor seeds derive from ``crc32(seed, flow_id)`` — so the same
``(fleet, seed, ticks)`` replays byte-for-byte (:meth:`SessionReport.dump`).

:func:`synthetic_fleet` mints the seeded menu/flow populations that the
benchmark, the CLI, the service runner, and the tests all share.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..cloud.executor import ExecutionPolicy, PlanExecutor
from ..cloud.faults import FaultProfile
from ..cloud.instance import InstanceFamily, VMConfig
from ..cloud.spot import SpotMarket
from ..core.optimize import ConfigOption, StageOptions
from ..eda.job import EDAStage
from ..obs.spans import mint_trace_id
from .market import SpotMarketFeed
from .planner import FleetPlan, FleetPlanner, FlowGroups, FlowSpec, group_flows

__all__ = [
    "synthetic_fleet",
    "TickReport",
    "SessionReport",
    "ContinuousSession",
]


def synthetic_fleet(
    seed: int,
    flows: int,
    menus: int = 16,
    deadline_buckets: int = 8,
    max_stages: int = 4,
    spot: bool = True,
    discount: float = 0.3,
) -> Tuple[Dict[str, List[StageOptions]], List[FlowSpec]]:
    """A seeded synthetic fleet: shared menus plus a flow population.

    Menus model distinct (design, catalog) characterizations — up to
    ``max_stages`` stages with 2-4 sized options each, plus spot twins
    when ``spot`` — and flows draw a menu and one of
    ``deadline_buckets`` deadlines between just-infeasible and slack.
    Bucketing mirrors production (deadlines cluster on SLA tiers) and is
    what makes fleet planning amortizable at all.
    """
    if flows < 1 or menus < 1 or deadline_buckets < 1:
        raise ValueError("flows, menus, and deadline_buckets must be >= 1")
    rng = random.Random(zlib.crc32(f"fleet:{seed}".encode()))
    families = list(InstanceFamily)
    menu_map: Dict[str, List[StageOptions]] = {}
    menu_deadlines: Dict[str, List[int]] = {}
    market = SpotMarket(discount=discount, interrupt_rate_per_hour=0.05)
    for m in range(menus):
        menu_id = f"menu-{m:04d}"
        stages: List[StageOptions] = []
        for stage in EDAStage.ordered()[: rng.randint(1, max_stages)]:
            options: List[ConfigOption] = []
            for j in range(rng.randint(2, 4)):
                vcpus = 2 ** rng.randint(0, 4)
                vm = VMConfig(
                    name=f"{menu_id}.{stage.value}.{j}",
                    family=rng.choice(families),
                    vcpus=vcpus,
                    memory_gb=4.0 * vcpus,
                    price_per_hour=round(rng.uniform(0.05, 3.0), 4),
                )
                runtime = rng.randint(5, 240)
                options.append(
                    ConfigOption(
                        vm=vm, runtime_seconds=runtime, price=vm.cost(runtime)
                    )
                )
            stages.append(StageOptions(stage=stage, options=options))
        if spot:
            stages = market.augment_stage_options(stages)
        menu_map[menu_id] = stages
        fastest = sum(
            min(o.runtime_seconds for o in s.options) for s in stages
        )
        slowest = sum(
            max(o.runtime_seconds for o in s.options) for s in stages
        )
        lo, hi = max(1, fastest - 2), slowest + 20
        if deadline_buckets == 1:
            menu_deadlines[menu_id] = [hi]
        else:
            menu_deadlines[menu_id] = [
                lo + round(k * (hi - lo) / (deadline_buckets - 1))
                for k in range(deadline_buckets)
            ]
    menu_ids = sorted(menu_map)
    # The per-flow loop is most of a large fleet's set-up: bind the
    # draw, float each deadline once, and build specs positionally.
    randrange = rng.randrange
    floated = {
        mid: [float(d) for d in deadlines]
        for mid, deadlines in menu_deadlines.items()
    }
    specs = [
        FlowSpec(
            f"flow-{i:07d}",
            mid := menu_ids[randrange(len(menu_ids))],
            floated[mid][randrange(deadline_buckets)],
        )
        for i in range(flows)
    ]
    return menu_map, specs


@dataclass
class TickReport:
    """What one market tick did to the fleet."""

    tick: int
    discount: float
    invalidated: int
    replanned_flows: int
    feasible_flows: int
    total_cost: float
    executed: List[str] = field(default_factory=list)
    executed_cost: float = 0.0
    executed_completed: int = 0


@dataclass
class SessionReport:
    """Full session outcome with a byte-stable rendering."""

    seed: int
    mode: str
    ticks: List[TickReport] = field(default_factory=list)
    final_plan: Optional[FleetPlan] = None

    @property
    def executed_flows(self) -> int:
        return sum(len(t.executed) for t in self.ticks)

    @property
    def executed_cost(self) -> float:
        return sum(t.executed_cost for t in self.ticks)

    def dump(self) -> str:
        lines = [
            f"repro-fleet-session/1 seed={self.seed} mode={self.mode} "
            f"ticks={len(self.ticks)} executed={self.executed_flows} "
            f"executed_cost={self.executed_cost:.6f}"
        ]
        for t in self.ticks:
            lines.append(
                f"tick={t.tick} discount={t.discount:.6f} "
                f"invalidated={t.invalidated} replanned={t.replanned_flows} "
                f"feasible={t.feasible_flows} cost={t.total_cost:.6f} "
                f"executed={len(t.executed)} "
                f"executed_cost={t.executed_cost:.6f} "
                f"completed={t.executed_completed}"
            )
        return "\n".join(lines) + "\n"


class ContinuousSession:
    """Drive a fleet through market ticks with mid-flight re-planning.

    Each :meth:`step` advances one tick: reprice every menu to the
    tick's spot discount, re-register (invalidating only menus whose
    economics moved), re-plan all pending flows, then hand the first
    ``execute_per_tick`` of them to the fault-injecting executor with
    the *live* menu as ``stage_options`` — so preemption-driven
    fallback inside the executor re-plans on current prices too.

    ``pending_groups`` is ``group_flows(pending)``, built once and kept
    current as flows execute, so a tick re-plans its cells without
    re-grouping every pending flow.
    """

    def __init__(
        self,
        menus: Dict[str, List[StageOptions]],
        flows: Sequence[FlowSpec],
        feed: Optional[SpotMarketFeed] = None,
        planner: Optional[FleetPlanner] = None,
        profile: Optional[FaultProfile] = None,
        policy: Optional[ExecutionPolicy] = None,
        seed: int = 0,
        execute_per_tick: int = 0,
    ):
        if execute_per_tick < 0:
            raise ValueError("execute_per_tick must be non-negative")
        self.raw_menus = dict(menus)
        self.pending: List[FlowSpec] = sorted(
            flows, key=lambda f: f.flow_id
        )
        self.pending_groups: FlowGroups = group_flows(self.pending)
        self.feed = feed if feed is not None else SpotMarketFeed(seed=seed)
        self.planner = planner if planner is not None else FleetPlanner()
        self.executor = PlanExecutor(
            profile=profile if profile is not None else FaultProfile.calm(),
            policy=policy if policy is not None else ExecutionPolicy(),
        )
        self.seed = seed
        self.execute_per_tick = execute_per_tick
        self.live_menus: Dict[str, List[StageOptions]] = {}
        self.report = SessionReport(seed=seed, mode=self.planner.mode)
        self._tick = 0

    def _flow_seed(self, flow_id: str) -> int:
        return zlib.crc32(f"{self.seed}:exec:{flow_id}".encode())

    def _flow_trace_id(self, flow_id: str) -> str:
        """One deterministic trace per executed flow (seed + flow id)."""
        return mint_trace_id(f"fleet:{flow_id}", self.seed)

    def step(self) -> TickReport:
        """Advance one market tick; returns that tick's report."""
        tick = self._tick
        self._tick += 1
        invalidated = 0
        discount = self.feed.discount(tick)
        for menu_id in sorted(self.raw_menus):
            repriced, _ = self.feed.reprice_stage_options(
                self.raw_menus[menu_id], tick
            )
            if self.planner.register_menu(menu_id, repriced):
                invalidated += 1
            self.live_menus[menu_id] = self.planner.menu(menu_id)
        plan = self.planner.plan(self.pending_groups)
        self.report.final_plan = plan
        tick_report = TickReport(
            tick=tick,
            discount=discount,
            invalidated=invalidated,
            replanned_flows=plan.stats.flows,
            feasible_flows=plan.stats.feasible_flows,
            total_cost=plan.total_cost,
        )

        # Executor hook: run the head of the pending queue on the live
        # (repriced) menus; the executor's own fallback re-planning sees
        # the same prices the fleet planner just used.
        if self.execute_per_tick:
            batch = self.pending[: self.execute_per_tick]
            self.pending = self.pending[self.execute_per_tick :]
            # A flow's group is its (menu, floor(deadline)) cell, so the
            # lookup costs one probe per executed flow, not a pass over
            # every planned flow id.
            cells = {(g.menu_id, g.capacity): g for g in plan.groups}
            for spec in batch:
                key = (spec.menu_id, int(spec.deadline_seconds))
                # The batch is the head of the flow-id-sorted queue, so
                # each executed flow heads its cell's id list.
                flow_ids = self.pending_groups[key]
                del flow_ids[0]
                if not flow_ids:
                    del self.pending_groups[key]
                selection = cells[key].selection
                if selection is None:
                    continue  # infeasible flows stay unexecuted
                deployment = selection.to_plan(spec.flow_id)
                outcome = self.executor.execute(
                    deployment,
                    deadline_seconds=spec.deadline_seconds,
                    seed=self._flow_seed(spec.flow_id),
                    stage_options=self.live_menus[spec.menu_id],
                    record_events=False,
                    trace_context=self._flow_trace_id(spec.flow_id),
                )
                tick_report.executed.append(spec.flow_id)
                tick_report.executed_cost += outcome.total_cost
                tick_report.executed_completed += int(outcome.completed)
        self.report.ticks.append(tick_report)
        return tick_report

    def run(self, ticks: int) -> SessionReport:
        """Run ``ticks`` steps and return the full session report."""
        if ticks < 1:
            raise ValueError("ticks must be >= 1")
        for _ in range(ticks):
            self.step()
        return self.report
