"""Correlated chaos engine: multi-region faults with bounded degradation.

The :mod:`repro.cloud` executor injects *independent* faults; this
package makes them conspire.  A :class:`CloudTopology` arranges regions
and availability zones over the pricing catalog, a
:class:`ChaosInjector` drives correlated fault processes (calm/storm
regimes, AZ-wide reclaims, boot-failure waves, noisy regions) from the
same crc32 seed streams as the base injector, and a
:class:`ChaosPlanExecutor` reacts with cross-region failover, transfer
billing, and off-home re-planning.  Severity is one knob in [0, 1]:
zero is bit-identical to the fault-free executor, and
:func:`degradation_bound` prices the hard worst case anywhere above it.

Named suites (:data:`SCENARIOS`) package workload + spec + service
storm; ``repro chaos --scenario`` runs them and ``repro verify
--oracle scenario`` fuzzes the graceful-degradation guarantees.  The
storm half is a plain :func:`repro.service.run_session` whose ``evict``
map comes from :func:`plan_evictions` (correlated AZ reclaims striking
the zones jobs were placed in).
"""

from .engine import ChaosPlanExecutor, DegradationBound, degradation_bound
from .processes import ChaosInjector, ChaosSpec
from .scenarios import (
    SCENARIOS,
    ChaosScenario,
    ScenarioResult,
    plan_evictions,
    run_scenario,
    scenario_names,
    scenario_to_run,
)
from .topology import CloudTopology, Region, default_topology

__all__ = [
    "Region",
    "CloudTopology",
    "default_topology",
    "ChaosSpec",
    "ChaosInjector",
    "ChaosPlanExecutor",
    "DegradationBound",
    "degradation_bound",
    "ChaosScenario",
    "SCENARIOS",
    "ScenarioResult",
    "scenario_names",
    "run_scenario",
    "scenario_to_run",
    "plan_evictions",
]
