"""FleetPlanner: grouping, cell caching, invalidation, byte-stable dumps."""

import hashlib
import random

import pytest

from repro.cli import main
from repro.core.optimize import MCKPTable
from repro.fleet import FleetPlanner, FlowSpec, group_flows, synthetic_fleet
from repro.fleet.planner import menu_signature
from repro.verify.generators import random_mckp_instance

pytestmark = pytest.mark.fleet


def _fleet(seed=0, flows=400, menus=6):
    menu_map, specs = synthetic_fleet(seed=seed, flows=flows, menus=menus)
    planner = FleetPlanner(mode="exact")
    for menu_id in sorted(menu_map):
        planner.register_menu(menu_id, menu_map[menu_id])
    return planner, menu_map, specs


class TestGrouping:
    def test_group_hits_amortize_duplicate_flows(self):
        planner, _, specs = _fleet(flows=400, menus=4)
        plan = planner.plan(group_flows(specs))
        assert plan.stats.flows == 400
        # Bucketed deadlines over 4 menus: far fewer groups than flows,
        # and every flow beyond the first in its group is a dict hit.
        assert plan.stats.groups < 400
        assert plan.stats.group_hits == 400 - plan.stats.groups
        assert sum(len(g.flow_ids) for g in plan.groups) == 400

    def test_one_table_per_menu(self):
        planner, menu_map, specs = _fleet(flows=500, menus=5)
        plan = planner.plan(group_flows(specs))
        used_menus = {s.menu_id for s in specs}
        assert plan.stats.tables_built == len(used_menus)
        assert plan.stats.table_queries == plan.stats.groups

    def test_feasible_plus_infeasible_is_total(self):
        planner, _, specs = _fleet()
        plan = planner.plan(group_flows(specs))
        assert (
            plan.stats.feasible_flows + plan.stats.infeasible_flows
            == plan.stats.flows
        )

    def test_group_for_finds_every_flow(self):
        planner, _, specs = _fleet(flows=50)
        plan = planner.plan(group_flows(specs))
        for spec in specs:
            group = plan.group_for(spec.flow_id)
            assert group is not None
            assert group.menu_id == spec.menu_id

    def test_unregistered_menu_raises(self):
        planner, _, _ = _fleet()
        with pytest.raises(KeyError):
            planner.plan(group_flows([FlowSpec("f0", "no-such-menu", 100.0)]))

    def test_nonpositive_deadline_raises(self):
        with pytest.raises(ValueError):
            group_flows([FlowSpec("f0", "menu-0000", 0.0)])

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            FleetPlanner(mode="magic")

    def test_group_flows_keeps_first_seen_order(self):
        specs = [
            FlowSpec("a", "m1", 10.7),
            FlowSpec("b", "m0", 5.0),
            FlowSpec("c", "m1", 10.2),
            FlowSpec("d", "m0", 6.0),
        ]
        assert list(group_flows(specs).items()) == [
            (("m1", 10), ["a", "c"]),
            (("m0", 5), ["b"]),
            (("m0", 6), ["d"]),
        ]

    def test_empty_groups_skipped_and_plan_is_a_snapshot(self):
        planner, _, specs = _fleet(flows=100)
        groups = group_flows(specs)
        # Skipped before the menu lookup, so an unregistered menu with
        # no flows does not raise.
        groups[("no-such-menu", 5)] = []
        plan = planner.plan(groups)
        assert plan.stats.groups == len(groups) - 1
        assert plan.stats.flows == 100
        dump = plan.dump()
        for flow_ids in groups.values():
            flow_ids.clear()
        assert plan.dump() == dump


class TestCellCache:
    def test_replan_hits_cache_and_matches(self):
        planner, _, specs = _fleet()
        first = planner.plan(group_flows(specs))
        second = planner.plan(group_flows(specs))
        assert second.stats.tables_built == 0
        assert second.stats.table_queries == 0
        # Group lines (everything but the counter header) are identical.
        assert (
            first.dump().split("\n", 1)[1]
            == second.dump().split("\n", 1)[1]
        )
        assert first.total_cost == second.total_cost

    def test_plans_do_not_leak_flows_across_calls(self):
        planner, _, specs = _fleet(flows=100)
        planner.plan(group_flows(specs))
        plan = planner.plan(group_flows(specs[:10]))
        assert plan.stats.flows == 10
        assert sum(len(g.flow_ids) for g in plan.groups) == 10

    def test_invalidate_one_menu_drops_only_its_cells(self):
        planner, _, specs = _fleet()
        plan = planner.plan(group_flows(specs))
        victim = specs[0].menu_id
        victim_cells = sum(1 for g in plan.groups if g.menu_id == victim)
        assert planner.invalidate(victim) == 1 + victim_cells
        # Every other menu still answers from its cached cells.
        replan = planner.plan(group_flows(specs))
        assert replan.stats.tables_built == 1
        assert replan.stats.table_queries == victim_cells
        # No-argument invalidation still drops every table and cell.
        used = {s.menu_id for s in specs}
        assert planner.invalidate() == len(used) + plan.stats.groups
        replan = planner.plan(group_flows(specs))
        assert replan.stats.table_queries == plan.stats.groups

    def test_invalidate_forces_resolve(self):
        planner, _, specs = _fleet()
        first = planner.plan(group_flows(specs))
        dropped = planner.invalidate()
        assert dropped > 0
        third = planner.plan(group_flows(specs))
        assert third.stats.tables_built == first.stats.tables_built
        assert third.stats.invalidations > first.stats.invalidations


class TestStateMemo:
    """Cells that reach one best DP state share its backtrack."""

    @staticmethod
    def _every_deadline(planner, menu_id):
        stages = planner.menu(menu_id)
        slowest = (max(o.runtime_seconds for o in s.options) for s in stages)
        capacity = sum(slowest) + 5
        groups = {(menu_id, d): [f"f{d}"] for d in range(1, capacity + 1)}
        return capacity, planner.plan(groups)

    def test_cells_equal_fresh_queries_at_every_deadline(self):
        feasible = infeasible = 0
        for seed in range(40):
            stages, _ = random_mckp_instance(random.Random(seed))
            planner = FleetPlanner(mode="exact")
            planner.register_menu("m", stages)
            capacity, plan = self._every_deadline(planner, "m")
            table = MCKPTable(planner.menu("m"), capacity)
            assert plan.stats.groups == capacity
            for group in plan.groups:
                fresh = table.query(group.capacity)
                assert group.feasible == (fresh is not None)
                if fresh is None:
                    infeasible += 1
                    assert group.selection is None
                    fields = (0.0, 0.0, 0)
                else:
                    feasible += 1
                    assert _choices(group.selection) == _choices(fresh)
                    fields = (
                        fresh.objective_inverse_price,
                        fresh.total_cost,
                        fresh.total_runtime,
                    )
                got = (group.objective, group.total_cost, group.total_runtime)
                assert _bits(got) == _bits(fields)
            # One selection object per distinct feasible best state.
            states = {
                table.best_state(g.capacity) for g in plan.groups if g.feasible
            }
            shared = {id(g.selection) for g in plan.groups if g.feasible}
            assert len(shared) == len(states)
        assert feasible and infeasible

    def test_memo_goes_with_its_table(self):
        planner, _, specs = _fleet()
        planner.plan(group_flows(specs))
        menu_id = specs[0].menu_id
        table, states = planner._tables[menu_id]
        assert states
        planner.invalidate(menu_id)
        assert menu_id not in planner._tables
        planner.plan(group_flows(specs))
        assert planner._tables[menu_id][1] is not states
        # A larger deadline rebuilds the table and starts a fresh memo.
        table, states = planner._tables[menu_id]
        bigger = table.capacity + 10
        planner.plan({(menu_id, bigger): ["late"]})
        rebuilt, memo = planner._tables[menu_id]
        assert rebuilt is not table and memo is not states
        assert list(memo) == [rebuilt.best_state(bigger)]


def _choices(selection):
    return {
        stage: (opt.vm.name, opt.runtime_seconds)
        for stage, opt in selection.choices.items()
    }


def _bits(values):
    return [v.hex() if isinstance(v, float) else v for v in values]


class TestRegistration:
    def test_reregister_unchanged_menu_keeps_cache(self):
        planner, menu_map, specs = _fleet()
        planner.plan(group_flows(specs))
        for menu_id in sorted(menu_map):
            assert planner.register_menu(menu_id, menu_map[menu_id]) is False
        assert planner.plan(group_flows(specs)).stats.tables_built == 0

    def test_reregister_changed_prices_invalidates(self):
        planner, menu_map, specs = _fleet()
        planner.plan(group_flows(specs))
        menu_id = sorted(menu_map)[0]
        stages = menu_map[menu_id]
        from dataclasses import replace

        bumped = [
            type(so)(
                stage=so.stage,
                options=[
                    replace(opt, price=opt.price * 2.0)
                    for opt in so.options
                ],
            )
            for so in stages
        ]
        assert menu_signature(bumped) != menu_signature(stages)
        assert planner.register_menu(menu_id, bumped) is True
        # Only the changed menu re-solves; the rest answer from cache.
        used = {s.menu_id for s in specs}
        plan = planner.plan(group_flows(specs))
        assert plan.stats.tables_built == (1 if menu_id in used else 0)

    def test_menu_ids_sorted(self):
        planner, menu_map, _ = _fleet()
        assert planner.menu_ids == sorted(menu_map)

    def test_signature_sensitive_to_each_field(self):
        stages, _ = random_mckp_instance(random.Random(0))
        base = menu_signature(stages)
        from dataclasses import replace

        tweaked = [
            type(so)(
                stage=so.stage,
                options=[
                    replace(opt, runtime_seconds=opt.runtime_seconds + 1)
                    for opt in so.options
                ],
            )
            for so in stages
        ]
        assert menu_signature(tweaked) != base


class TestDumpStability:
    def test_fresh_planners_dump_identically(self):
        dumps = []
        for _ in range(2):
            planner, _, specs = _fleet(seed=3, flows=300)
            dumps.append(planner.plan(group_flows(specs)).dump())
        assert dumps[0] == dumps[1]

    def test_flow_order_does_not_change_dump_body(self):
        planner_a, _, specs = _fleet(seed=5, flows=200)
        planner_b, _, _ = _fleet(seed=5, flows=200)
        plan_a = planner_a.plan(group_flows(specs))
        plan_b = planner_b.plan(group_flows(list(reversed(specs))))
        body_a = plan_a.dump().split("\n", 1)[1]
        body_b = plan_b.dump().split("\n", 1)[1]
        assert body_a == body_b


class TestApproxMode:
    def test_approx_counts_solves_not_tables(self):
        menu_map, specs = synthetic_fleet(seed=1, flows=300, menus=4)
        planner = FleetPlanner(mode="approx")
        for menu_id in sorted(menu_map):
            planner.register_menu(menu_id, menu_map[menu_id])
        plan = planner.plan(group_flows(specs))
        assert plan.mode == "approx"
        assert plan.stats.tables_built == 0
        assert plan.stats.approx_solves == plan.stats.groups
        assert plan.max_certified_gap >= 0.0

    def test_no_prune_keeps_every_option(self):
        menu_map, specs = synthetic_fleet(seed=2, flows=100, menus=3)
        pruned = FleetPlanner(mode="exact", prune=True)
        raw = FleetPlanner(mode="exact", prune=False)
        for menu_id in sorted(menu_map):
            pruned.register_menu(menu_id, menu_map[menu_id])
            raw.register_menu(menu_id, menu_map[menu_id])
        plan_p = pruned.plan(group_flows(specs))
        plan_r = raw.plan(group_flows(specs))
        assert plan_r.stats.pruned_options == 0
        assert plan_p.stats.pruned_options >= 0
        # Pruning must not move the fleet's total cost.
        assert plan_p.total_cost == pytest.approx(plan_r.total_cost)
        assert plan_p.stats.feasible_flows == plan_r.stats.feasible_flows


#: sha256 of ``repro fleet --seed 0 --flows 10000 --mode exact --dump``,
#: CI's fleet-exact replay; any change to the DP, its tie-breaks, the
#: pruning or the dump format moves it.
FLEET_EXACT_PIN = (
    "cc717a0a137d521265afe2b467beeb0f572665d196bf6cfceee9780596dac20c"
)


def test_fleet_exact_dump_is_bit_identical_to_the_pin(tmp_path, capsys):
    out = tmp_path / "fleet.txt"
    argv = ["fleet", "--seed", "0", "--flows", "10000", "--mode", "exact"]
    assert main(argv + ["--dump", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == FLEET_EXACT_PIN
