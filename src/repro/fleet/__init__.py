"""Fleet-scale continuous capacity planning (DESIGN.md §14).

The paper's Problem 3 plans one flow at a time; this package plans whole
fleets.  :mod:`~repro.fleet.planner` batches MCKP solves with DP-table
reuse and dominance pruning (plus a certified-gap greedy approximation),
:mod:`~repro.fleet.market` feeds deterministic spot-price ticks that
invalidate cached tables, and :mod:`~repro.fleet.session` loops
plan → tick → reprice → re-plan → execute through the existing
fault-injecting executor.  The ``fleet`` oracle in :mod:`repro.verify`
fuzzes every amortization against fresh exact solves.
"""

from .market import DEFAULT_POOL, PriceTick, SpotMarketFeed
from .planner import (
    FleetPlan,
    FleetPlanner,
    FleetStats,
    FlowSpec,
    GroupPlan,
    group_flows,
    menu_signature,
)
from .session import ContinuousSession, SessionReport, TickReport, synthetic_fleet

__all__ = [
    "DEFAULT_POOL",
    "PriceTick",
    "SpotMarketFeed",
    "FlowSpec",
    "group_flows",
    "GroupPlan",
    "FleetStats",
    "FleetPlan",
    "FleetPlanner",
    "menu_signature",
    "synthetic_fleet",
    "TickReport",
    "SessionReport",
    "ContinuousSession",
]
