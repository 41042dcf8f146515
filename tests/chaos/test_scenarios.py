"""Named scenario suites: replay, bounds, severity-blind planning, records.

These are the end-to-end properties ``repro chaos --scenario`` and the
``scenario`` fuzz oracle stand on; the tests here pin them at fixed
seeds so a regression names the broken property directly.
"""

import hashlib

import pytest

from repro.chaos import (
    SCENARIOS,
    run_scenario,
    scenario_names,
    scenario_to_run,
)
from repro.chaos.scenarios import _build_workload
from repro.chaos.topology import default_topology
from repro.cli import main
from repro.cloud.executor import ExecutionPolicy

#: sha256 of ``repro chaos --scenario all --seed 0 --trace-out`` — 12
#: scenario runs whose dumps carry 23 storm-session eviction lines.
SCENARIO_DUMP_SHA256 = (
    "b48a494a24334ade5970306e7191c7d38e38dd12c6d1e8328f73975dac552cb7"
)


def test_scenario_registry_is_sorted_and_self_consistent():
    assert scenario_names() == (
        "az_reclaim_storm",
        "noisy_region",
        "regime_flap",
        "transfer_partition",
    )
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.description
        assert scenario.policy.max_preemptions_per_stage is not None


def test_unknown_scenario_raises_keyerror_naming_the_known_suites():
    with pytest.raises(KeyError, match="az_reclaim_storm"):
        run_scenario("volcano")


def test_scenario_validation_rejects_degenerate_suites():
    template = SCENARIOS["regime_flap"]
    from dataclasses import replace

    with pytest.raises(ValueError, match="deadline_factor"):
        replace(template, deadline_factor=0.5)
    with pytest.raises(ValueError, match="jobs"):
        replace(template, jobs=0)
    with pytest.raises(ValueError, match="bounded"):
        replace(
            template,
            policy=ExecutionPolicy(max_preemptions_per_stage=None),
        )


def test_replay_is_byte_identical():
    a = run_scenario("regime_flap", severity=1.0, seed=4)
    b = run_scenario("regime_flap", severity=1.0, seed=4)
    assert a.trace_dump() == b.trace_dump()
    assert a.summary() == b.summary()


def test_scenario_dump_is_pinned(tmp_path, capsys):
    dump = tmp_path / "scenarios.txt"
    assert main(
        ["chaos", "--scenario", "all", "--seed", "0", "--trace-out", str(dump)]
    ) == 0
    capsys.readouterr()
    data = dump.read_bytes()
    assert data.count(b"\nevicted ") == 23
    assert hashlib.sha256(data).hexdigest() == SCENARIO_DUMP_SHA256


def test_storm_evictions_are_counted_once_each():
    result = run_scenario("az_reclaim_storm", severity=1.0, seed=0)
    service = result.storm.service
    assert len(result.storm.evictions) == 8
    counters = service.registry.snapshot().counters
    assert counters["service.evictions"] == len(result.storm.evictions)
    assert counters["service.requeued"] == len(result.storm.evictions)


def test_zero_severity_run_has_zero_overrun_and_no_evictions():
    result = run_scenario("az_reclaim_storm", severity=0.0, seed=2)
    assert result.execution.trace.to_jsonl() == (
        result.baseline.trace.to_jsonl()
    )
    assert result.time_overrun == 0.0
    assert result.cost_overrun == 0.0
    assert result.bound.time_overrun == 0.0
    assert result.within_bounds
    assert result.storm.evictions == {}


def test_planning_is_severity_blind():
    """One scenario's plan must be identical across its severity sweep,
    so overruns compare like-for-like against the severity-0 baseline."""
    mild = run_scenario("noisy_region", severity=0.25, seed=1)
    harsh = run_scenario("noisy_region", severity=1.0, seed=1)
    assert mild.execution.plan == harsh.execution.plan
    assert mild.deadline_seconds == harsh.deadline_seconds
    assert mild.baseline.trace.to_jsonl() == harsh.baseline.trace.to_jsonl()


def test_full_severity_runs_sit_inside_the_degradation_bound():
    for name in scenario_names():
        result = run_scenario(name, severity=1.0, seed=0)
        assert result.within_bounds, result.summary()


def test_workload_derives_deadline_from_the_fastest_critical_path():
    scenario = SCENARIOS["transfer_partition"]
    menu, plan, deadline = _build_workload(scenario, default_topology())
    assert plan.design == "transfer_partition"
    assert len(plan.assignments) == len(menu)
    # 1200 + 2400 + 3600 + 600 fastest seconds times the 1.8 factor.
    assert deadline == pytest.approx(scenario.deadline_factor * 7800.0)


def test_scenario_to_run_record_shape():
    result = run_scenario("az_reclaim_storm", severity=0.5, seed=0)
    record = scenario_to_run(
        result, rev="testrev", timestamp_utc="2026-08-08T00:00:00Z"
    )
    assert record.kind == "chaos.scenario"
    assert record.scale == 0.5
    assert record.seed == 0
    assert record.rev == "testrev"
    assert record.labels["scenario"] == "az_reclaim_storm"
    assert record.labels["design"] == "az_reclaim_storm"
    assert record.labels["within_bounds"] is True
    gauges = record.metrics["gauges"]
    for key in (
        "chaos.scenario.total_cost",
        "chaos.scenario.sim_seconds",
        "chaos.scenario.overrun_time",
        "chaos.scenario.overrun_cost",
        "chaos.scenario.bound_time",
        "chaos.scenario.bound_cost",
        "chaos.scenario.preemptions",
        "chaos.scenario.az_reclaims",
        "chaos.scenario.failovers",
        "chaos.scenario.evictions",
    ):
        assert key in gauges
    assert gauges["chaos.scenario.overrun_time"] == result.time_overrun
    # Records round-trip through the store schema.
    from repro.obs.store import RunRecord

    assert RunRecord.from_dict(record.to_dict()) == record
