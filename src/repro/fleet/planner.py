"""Fleet-scale batched MCKP planning with table reuse and pruning.

The paper's Problem 3 plans *one* flow; production means queues of
millions of flows competing for shared capacity.  Three amortizations
make that tractable:

* **Menu sharing** — flows that characterize the same design on the
  same catalog share a stage-option menu.  The planner groups flows by
  ``(menu, floor(deadline))`` so identical instances are solved once and
  answered from a dict hit.
* **DP-table reuse** — one :class:`~repro.core.optimize.MCKPTable`
  solved to the *largest* deadline in a menu's group answers every
  smaller deadline identically to a fresh ``solve_mckp_dp`` call (the
  DP state is indexed by exact runtime and never reads forward), so a
  thousand nearby deadlines cost one DP.
* **Dominance pruning** — IP-dominated options are removed from every
  menu before any solve; the optimum is provably unchanged and the DP's
  inner loop shrinks.

Two modes: ``exact`` (DP tables) and ``approx``
(:func:`~repro.core.optimize.solve_approx`, the greedy LP-frontier walk
whose per-instance ``certified_gap`` upper-bounds the true optimality
gap).  The ``fleet`` oracle in :mod:`repro.verify` fuzzes all three
amortizations against fresh exact solves.

Everything is deterministic: same menus + flows -> byte-identical
:meth:`FleetPlan.dump` (CI plans a 10k-flow fleet twice and ``cmp``'s
the dumps).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.optimize import (
    ApproxResult,
    MCKPTable,
    Selection,
    StageOptions,
    prune_stage_options,
    solve_approx,
)

__all__ = [
    "FlowSpec",
    "GroupPlan",
    "FleetStats",
    "FleetPlan",
    "FleetPlanner",
    "menu_signature",
]


def menu_signature(stages: Sequence[StageOptions]) -> int:
    """Stable 32-bit fingerprint of a menu's economics.

    Covers every option's stage, VM name, runtime, and price, so any
    price tick that actually moves a number changes the signature — the
    planner uses this to skip cache invalidation on no-op re-registers.
    """
    parts: List[str] = []
    for stage_opts in stages:
        for opt in stage_opts.options:
            parts.append(
                f"{stage_opts.stage.value}|{opt.vm.name}|"
                f"{opt.runtime_seconds}|{opt.price!r}"
            )
    return zlib.crc32(";".join(parts).encode())


@dataclass(frozen=True)
class FlowSpec:
    """One queued flow: which shared menu it prices, and its deadline."""

    flow_id: str
    menu_id: str
    deadline_seconds: float


@dataclass
class GroupPlan:
    """One solved ``(menu, deadline)`` cell and every flow it answers."""

    menu_id: str
    capacity: int
    feasible: bool
    selection: Optional[Selection]
    objective: float
    total_cost: float
    total_runtime: int
    certified_gap: Optional[float]
    flow_ids: List[str] = field(default_factory=list)

    def choice_labels(self) -> str:
        if self.selection is None:
            return "-"
        return ",".join(
            f"{stage.value}:{opt.vm.name}@{opt.runtime_seconds}s"
            for stage, opt in self.selection.choices.items()
        )


@dataclass
class FleetStats:
    """Amortization counters for one :meth:`FleetPlanner.plan` call."""

    flows: int = 0
    feasible_flows: int = 0
    infeasible_flows: int = 0
    groups: int = 0
    group_hits: int = 0
    tables_built: int = 0
    table_queries: int = 0
    approx_solves: int = 0
    pruned_options: int = 0
    invalidations: int = 0


@dataclass
class FleetPlan:
    """A whole fleet's plans, grouped by solved ``(menu, deadline)`` cell."""

    mode: str
    groups: List[GroupPlan]
    stats: FleetStats

    @property
    def total_cost(self) -> float:
        """Summed cost of every feasible flow's plan.

        Summed in sorted group order so the float total is independent
        of whether a group came from the solve path or the cell cache.
        """
        return sum(
            g.total_cost * len(g.flow_ids)
            for g in sorted(self.groups, key=lambda g: (g.menu_id, g.capacity))
            if g.feasible
        )

    @property
    def max_certified_gap(self) -> float:
        """Worst certified gap across groups (0.0 in exact mode)."""
        gaps = [g.certified_gap for g in self.groups if g.certified_gap]
        return max(gaps) if gaps else 0.0

    def group_for(self, flow_id: str) -> Optional[GroupPlan]:
        """The solved cell covering one flow (linear scan; debugging aid)."""
        for group in self.groups:
            if flow_id in group.flow_ids:
                return group
        return None

    def dump(self) -> str:
        """Byte-stable plan dump (same fleet -> identical bytes)."""
        lines = [
            f"repro-fleet/1 mode={self.mode} flows={self.stats.flows} "
            f"groups={self.stats.groups} feasible={self.stats.feasible_flows} "
            f"infeasible={self.stats.infeasible_flows} "
            f"pruned={self.stats.pruned_options} "
            f"tables={self.stats.tables_built} "
            f"total_cost={self.total_cost:.6f}"
        ]
        for group in sorted(self.groups, key=lambda g: (g.menu_id, g.capacity)):
            gap = (
                "-"
                if group.certified_gap is None
                else f"{group.certified_gap:.9f}"
            )
            lines.append(
                f"menu={group.menu_id} deadline={group.capacity} "
                f"flows={len(group.flow_ids)} "
                f"feasible={'yes' if group.feasible else 'no'} "
                f"runtime={group.total_runtime} cost={group.total_cost:.6f} "
                f"objective={group.objective:.9f} gap={gap} "
                f"choices={group.choice_labels()}"
            )
        return "\n".join(lines) + "\n"


class FleetPlanner:
    """Continuous batched planner over registered, mutable menus.

    Menus are registered once and re-registered whenever a price tick
    moves them (:class:`~repro.fleet.market.SpotMarketFeed` drives
    this); re-registration with a changed signature invalidates that
    menu's cached DP table and solved cells, so the next :meth:`plan`
    re-solves against live prices while untouched menus keep their
    amortized state across calls.
    """

    def __init__(self, mode: str = "exact", prune: bool = True):
        if mode not in ("exact", "approx"):
            raise ValueError(f"mode must be 'exact' or 'approx', got {mode!r}")
        self.mode = mode
        self.prune = prune
        self._menus: Dict[str, List[StageOptions]] = {}
        self._signatures: Dict[str, int] = {}
        self._pruned_counts: Dict[str, int] = {}
        self._tables: Dict[str, MCKPTable] = {}
        self._cells: Dict[Tuple[str, int], GroupPlan] = {}
        # Each menu's cell keys, so invalidating one menu touches only
        # its own cells rather than scanning every menu's.
        self._menu_cells: Dict[str, List[Tuple[str, int]]] = {}
        self._invalidations = 0

    # -- menu registry ----------------------------------------------------

    def register_menu(
        self, menu_id: str, stages: Sequence[StageOptions]
    ) -> bool:
        """(Re-)register a shared menu; returns True when caches dropped."""
        signature = menu_signature(stages)
        if self._signatures.get(menu_id) == signature:
            return False
        changed = menu_id in self._signatures
        if self.prune:
            pruned, removed = prune_stage_options(stages)
        else:
            pruned, removed = list(stages), 0
        self._menus[menu_id] = pruned
        self._signatures[menu_id] = signature
        self._pruned_counts[menu_id] = removed
        if changed:
            self.invalidate(menu_id)
        return changed

    def menu(self, menu_id: str) -> List[StageOptions]:
        """The (pruned) menu registered under ``menu_id``."""
        return self._menus[menu_id]

    @property
    def menu_ids(self) -> List[str]:
        return sorted(self._menus)

    def invalidate(self, menu_id: Optional[str] = None) -> int:
        """Drop cached tables/cells for one menu (or all); returns count."""
        victims = [menu_id] if menu_id is not None else list(self._menus)
        dropped = 0
        for victim in victims:
            if self._tables.pop(victim, None) is not None:
                dropped += 1
            stale = self._menu_cells.pop(victim, [])
            dropped += len(stale)
            for key in stale:
                del self._cells[key]
        self._invalidations += 1 if dropped else 0
        return dropped

    # -- planning ---------------------------------------------------------

    def plan(self, flows: Iterable[FlowSpec]) -> FleetPlan:
        """Plan every flow; amortized across shared menus and deadlines."""
        stats = FleetStats(
            invalidations=self._invalidations,
        )
        cells = self._cells
        # Group flows by solved cell.  This loop is the 10^5-flows/sec
        # hot path: one int floor, one tuple key, one dict hit per flow.
        fresh: Dict[Tuple[str, int], List[str]] = {}
        groups: List[GroupPlan] = []
        for spec in flows:
            stats.flows += 1
            if spec.deadline_seconds <= 0:
                raise ValueError(
                    f"flow {spec.flow_id}: deadline must be positive"
                )
            key = (spec.menu_id, int(spec.deadline_seconds))
            cell = cells.get(key)
            if cell is not None:
                if not cell.flow_ids:
                    groups.append(cell)
                else:
                    stats.group_hits += 1
                cell.flow_ids.append(spec.flow_id)
                continue
            pending = fresh.get(key)
            if pending is not None:
                stats.group_hits += 1
                pending.append(spec.flow_id)
                continue
            if spec.menu_id not in self._menus:
                raise KeyError(f"unregistered menu {spec.menu_id!r}")
            fresh[key] = [spec.flow_id]

        # Solve fresh cells menu-by-menu, largest deadline first, so the
        # first (largest) cell builds the table every smaller one reuses.
        for menu_id, capacity in sorted(
            fresh, key=lambda k: (k[0], -k[1])
        ):
            flow_ids = fresh[(menu_id, capacity)]
            cell = self._solve_cell(menu_id, capacity, stats)
            cell.flow_ids.extend(flow_ids)
            cells[(menu_id, capacity)] = cell
            self._menu_cells.setdefault(menu_id, []).append(
                (menu_id, capacity)
            )
            groups.append(cell)

        for group in groups:
            count = len(group.flow_ids)
            if group.feasible:
                stats.feasible_flows += count
            else:
                stats.infeasible_flows += count
        stats.groups = len(groups)
        stats.pruned_options = sum(
            self._pruned_counts.get(mid, 0) for mid in self._menus
        )
        # Reset per-call flow lists lazily: cells persist for reuse, but
        # each plan() reports only its own flows.
        plan = FleetPlan(
            mode=self.mode,
            groups=[
                GroupPlan(
                    menu_id=g.menu_id,
                    capacity=g.capacity,
                    feasible=g.feasible,
                    selection=g.selection,
                    objective=g.objective,
                    total_cost=g.total_cost,
                    total_runtime=g.total_runtime,
                    certified_gap=g.certified_gap,
                    flow_ids=list(g.flow_ids),
                )
                for g in groups
            ],
            stats=stats,
        )
        for group in groups:
            group.flow_ids.clear()
        return plan

    def _solve_cell(
        self, menu_id: str, capacity: int, stats: FleetStats
    ) -> GroupPlan:
        stages = self._menus[menu_id]
        if self.mode == "approx":
            stats.approx_solves += 1
            return _cell_from_approx(
                menu_id, capacity, solve_approx(stages, capacity)
            )
        table = self._tables.get(menu_id)
        if table is None or table.capacity < capacity:
            table = MCKPTable(stages, capacity)
            self._tables[menu_id] = table
            stats.tables_built += 1
        stats.table_queries += 1
        return _cell_from_selection(menu_id, capacity, table.query(capacity))


def _cell_from_selection(
    menu_id: str, capacity: int, selection: Optional[Selection]
) -> GroupPlan:
    if selection is None:
        return GroupPlan(
            menu_id=menu_id,
            capacity=capacity,
            feasible=False,
            selection=None,
            objective=0.0,
            total_cost=0.0,
            total_runtime=0,
            certified_gap=None,
        )
    return GroupPlan(
        menu_id=menu_id,
        capacity=capacity,
        feasible=True,
        selection=selection,
        objective=selection.objective_inverse_price,
        total_cost=selection.total_cost,
        total_runtime=selection.total_runtime,
        certified_gap=None,
    )


def _cell_from_approx(
    menu_id: str, capacity: int, result: Optional[ApproxResult]
) -> GroupPlan:
    if result is None:
        return GroupPlan(
            menu_id=menu_id,
            capacity=capacity,
            feasible=False,
            selection=None,
            objective=0.0,
            total_cost=0.0,
            total_runtime=0,
            certified_gap=0.0,
        )
    return GroupPlan(
        menu_id=menu_id,
        capacity=capacity,
        feasible=True,
        selection=result.selection,
        objective=result.objective,
        total_cost=result.selection.total_cost,
        total_runtime=result.selection.total_runtime,
        certified_gap=result.certified_gap,
    )
