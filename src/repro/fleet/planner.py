"""Fleet-scale batched MCKP planning with table reuse and pruning.

The paper's Problem 3 plans *one* flow; production means queues of
millions of flows competing for shared capacity.  Three amortizations
make that tractable:

* **Menu sharing** — flows that characterize the same design on the
  same catalog share a stage-option menu.  :func:`group_flows` buckets
  flows by ``(menu, floor(deadline))`` cell, and :meth:`FleetPlanner.plan`
  takes those groups, so a plan costs one solve or cache probe per
  cell, not per flow.  A long-lived caller
  (:class:`~repro.fleet.session.ContinuousSession`) groups once and keeps
  the groups current as flows leave.
* **DP-table reuse** — one :class:`~repro.core.optimize.MCKPTable`
  solved to the *largest* deadline in a menu's group answers every
  smaller deadline identically to a fresh ``solve_mckp_dp`` call (the
  DP state is indexed by exact runtime and never reads forward), so a
  thousand nearby deadlines cost one DP.  Deadlines whose best DP state
  coincides share one backtrack: a cell's selection and sums are
  memoized per ``(menu, best state)`` beside the table.
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
    "FlowGroups",
    "group_flows",
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


#: Flow ids bucketed by solved cell: ``(menu_id, floor(deadline))``.
FlowGroups = Dict[Tuple[str, int], List[str]]

#: A solved cell's fields, in :class:`GroupPlan` order from ``feasible``
#: to ``certified_gap``.
_Cell = Tuple[bool, Optional[Selection], float, float, int, Optional[float]]


def group_flows(specs: Iterable[FlowSpec]) -> FlowGroups:
    """Bucket flows by ``(menu_id, floor(deadline))``, in first-seen order.

    Each cell's flow ids keep the order the specs arrive in; this is the
    input :meth:`FleetPlanner.plan` takes.
    """
    groups: FlowGroups = {}
    for spec in specs:
        if spec.deadline_seconds <= 0:
            raise ValueError(
                f"flow {spec.flow_id}: deadline must be positive"
            )
        key = (spec.menu_id, int(spec.deadline_seconds))
        flow_ids = groups.get(key)
        if flow_ids is None:
            groups[key] = [spec.flow_id]
        else:
            flow_ids.append(spec.flow_id)
    return groups


@dataclass
class GroupPlan:
    """One solved ``(menu, deadline)`` cell and every flow it answers.

    ``selection`` is shared with every other cell of the same menu whose
    deadline reaches the same best DP state, and with later plans that
    answer the cell from cache: treat it as read-only.
    """

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
        # Each menu's DP table beside its per-state memo: the solved
        # fields of every best DP state some deadline has reached.
        self._tables: Dict[str, Tuple[MCKPTable, Dict[int, _Cell]]] = {}
        self._cells: Dict[Tuple[str, int], _Cell] = {}
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

    def plan(
        self, groups: Mapping[Tuple[str, int], Sequence[str]]
    ) -> FleetPlan:
        """Plan every grouped flow; amortized across menus and deadlines.

        ``groups`` maps each ``(menu_id, floor(deadline))`` cell to its
        flow ids (see :func:`group_flows`); empty groups are skipped.
        The plan copies every id list, so later changes to ``groups``
        do not reach it.
        """
        stats = FleetStats(
            invalidations=self._invalidations,
        )
        cells = self._cells
        planned: List[GroupPlan] = []
        fresh: List[Tuple[str, int]] = []
        for key, flow_ids in groups.items():
            if not flow_ids:
                continue
            stats.flows += len(flow_ids)
            cell = cells.get(key)
            if cell is not None:
                planned.append(GroupPlan(*key, *cell, list(flow_ids)))
            elif key[0] not in self._menus:
                raise KeyError(f"unregistered menu {key[0]!r}")
            else:
                fresh.append(key)

        # Solve fresh cells menu-by-menu, largest deadline first, so the
        # first (largest) cell builds the table every smaller one reuses.
        for key in sorted(fresh, key=lambda k: (k[0], -k[1])):
            cell = self._solve_cell(*key, stats)
            cells[key] = cell
            self._menu_cells.setdefault(key[0], []).append(key)
            planned.append(GroupPlan(*key, *cell, list(groups[key])))

        for group in planned:
            count = len(group.flow_ids)
            if group.feasible:
                stats.feasible_flows += count
            else:
                stats.infeasible_flows += count
        stats.groups = len(planned)
        stats.group_hits = stats.flows - stats.groups
        stats.pruned_options = sum(
            self._pruned_counts.get(mid, 0) for mid in self._menus
        )
        return FleetPlan(mode=self.mode, groups=planned, stats=stats)

    def _solve_cell(
        self, menu_id: str, capacity: int, stats: FleetStats
    ) -> _Cell:
        stages = self._menus[menu_id]
        if self.mode == "approx":
            stats.approx_solves += 1
            return _approx_cell(solve_approx(stages, capacity))
        entry = self._tables.get(menu_id)
        if entry is None or entry[0].capacity < capacity:
            entry = (MCKPTable(stages, capacity), {})
            self._tables[menu_id] = entry
            stats.tables_built += 1
        stats.table_queries += 1
        table, states = entry
        # Deadlines that reach the same best DP state backtrack to the
        # same selection, so each state is backtracked and summed once.
        state = table.best_state(capacity)
        cell = states.get(state)
        if cell is None:
            cell = states[state] = _exact_cell(table.query(capacity))
        return cell


def _exact_cell(selection: Optional[Selection]) -> _Cell:
    if selection is None:
        return (False, None, 0.0, 0.0, 0, None)
    return (
        True,
        selection,
        selection.objective_inverse_price,
        selection.total_cost,
        selection.total_runtime,
        None,
    )


def _approx_cell(result: Optional[ApproxResult]) -> _Cell:
    if result is None:
        return (False, None, 0.0, 0.0, 0, 0.0)
    return (
        True,
        result.selection,
        result.objective,
        result.selection.total_cost,
        result.selection.total_runtime,
        result.certified_gap,
    )
