"""ContinuousSession + synthetic_fleet: deterministic tick-by-tick replay."""

import hashlib

import pytest

from repro.cli import main
from repro.verify.oracles import fleet_session_violations
from repro.fleet import (
    ContinuousSession,
    FleetPlanner,
    SpotMarketFeed,
    synthetic_fleet,
)

pytestmark = pytest.mark.fleet


class TestSyntheticFleet:
    def test_same_seed_same_fleet(self):
        menus_a, flows_a = synthetic_fleet(seed=7, flows=100)
        menus_b, flows_b = synthetic_fleet(seed=7, flows=100)
        assert flows_a == flows_b
        assert sorted(menus_a) == sorted(menus_b)
        from repro.fleet.planner import menu_signature

        for menu_id in menus_a:
            assert menu_signature(menus_a[menu_id]) == menu_signature(
                menus_b[menu_id]
            )

    def test_different_seeds_differ(self):
        _, flows_a = synthetic_fleet(seed=1, flows=100)
        _, flows_b = synthetic_fleet(seed=2, flows=100)
        assert flows_a != flows_b

    def test_every_flow_references_a_menu(self):
        menus, flows = synthetic_fleet(seed=0, flows=200, menus=5)
        assert len(menus) == 5
        assert len(flows) == 200
        for spec in flows:
            assert spec.menu_id in menus
            assert spec.deadline_seconds > 0

    def test_single_deadline_bucket(self):
        menus, flows = synthetic_fleet(
            seed=0, flows=50, menus=2, deadline_buckets=1
        )
        per_menu = {}
        for spec in flows:
            per_menu.setdefault(spec.menu_id, set()).add(
                spec.deadline_seconds
            )
        for deadlines in per_menu.values():
            assert len(deadlines) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_fleet(seed=0, flows=0)
        with pytest.raises(ValueError):
            synthetic_fleet(seed=0, flows=1, menus=0)
        with pytest.raises(ValueError):
            synthetic_fleet(seed=0, flows=1, deadline_buckets=0)


def _session(seed=0, flows=60, execute_per_tick=0, mode="exact"):
    menus, specs = synthetic_fleet(seed=seed, flows=flows, menus=4)
    return ContinuousSession(
        menus,
        specs,
        feed=SpotMarketFeed(seed=seed),
        planner=FleetPlanner(mode=mode),
        seed=seed,
        execute_per_tick=execute_per_tick,
    )


class TestContinuousSession:
    def test_dump_replays_byte_for_byte(self):
        a = _session(seed=11, execute_per_tick=10).run(4).dump()
        b = _session(seed=11, execute_per_tick=10).run(4).dump()
        assert a == b

    def test_executed_flows_drain_pending(self):
        session = _session(flows=60, execute_per_tick=25)
        report = session.run(3)
        # 25 + 25 + 10: the queue drains, then sits empty.
        assert all(len(t.executed) <= 25 for t in report.ticks)
        assert len(session.pending) == 0
        assert session.pending_groups == {}
        assert (
            report.executed_flows
            + sum(
                t.replanned_flows - t.feasible_flows
                for t in report.ticks[:1]
            )
            <= 60
        )

    def test_tick_zero_invalidates_nothing(self):
        # Tick 0 reprices at the base discount: signatures unchanged,
        # no caches dropped.
        report = _session(seed=3).run(1)
        assert report.ticks[0].invalidated == 0

    def test_later_ticks_invalidate_moved_menus(self):
        report = _session(seed=3).run(5)
        assert sum(t.invalidated for t in report.ticks[1:]) > 0

    def test_every_tick_replans_all_pending(self):
        report = _session(flows=40, execute_per_tick=0).run(3)
        for t in report.ticks:
            assert t.replanned_flows == 40

    def test_report_counts_are_consistent(self):
        report = _session(flows=30, execute_per_tick=7).run(3)
        assert report.executed_flows == sum(
            len(t.executed) for t in report.ticks
        )
        assert report.executed_cost == pytest.approx(
            sum(t.executed_cost for t in report.ticks)
        )
        for t in report.ticks:
            assert t.executed_completed <= len(t.executed)

    def test_approx_mode_session_runs(self):
        report = _session(mode="approx", execute_per_tick=5).run(2)
        assert report.mode == "approx"
        assert report.final_plan is not None

    @pytest.mark.parametrize("mode", ["exact", "approx"])
    def test_kept_groups_match_a_fresh_grouping_every_tick(self, mode):
        # 4 ticks of 75 drain all 300 flows, so every cell empties.
        menus, specs = synthetic_fleet(seed=4, flows=300, menus=4)
        problems = fleet_session_violations(
            menus, specs, seed=4, mode=mode, ticks=4, execute_per_tick=75
        )
        assert problems == []

    def test_validation(self):
        with pytest.raises(ValueError):
            _session(execute_per_tick=-1)
        with pytest.raises(ValueError):
            _session().run(0)


#: sha256 of the session dump from ``repro fleet --seed 0 --flows 10000
#: --ticks 5 --execute-per-tick 50 --dump``: covers the per-tick
#: invalidation, re-plan and executor-lookup paths end to end.
FLEET_SESSION_PIN = (
    "ce054b187c424dbaade92b2390f00c957457e0115aadf71a4d3a2a740c55e6d7"
)


def test_session_dump_is_bit_identical_to_the_pin(tmp_path, capsys):
    out = tmp_path / "session.txt"
    argv = ["fleet", "--seed", "0", "--flows", "10000", "--ticks", "5"]
    argv += ["--execute-per-tick", "50", "--dump", str(out)]
    assert main(argv) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FLEET_SESSION_PIN
