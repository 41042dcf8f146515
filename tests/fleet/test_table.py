"""DP-table reuse: one table answers every smaller deadline identically.

The invariant the fleet planner leans on: the DP state at capacity ``c``
never reads entries above ``c``, so a table built to capacity ``C``
contains — as a prefix — exactly the table a fresh solve at any
``d <= C`` would build.  The reuse answer must therefore be *identical*
(same option per stage, not merely the same objective) to a fresh
``solve_mckp_dp`` call.

The table relaxes one option across every state at once with numpy;
:class:`TestScalarRecurrence` holds it to the scalar per-state
recurrence, bit for bit.
"""

import random

import numpy as np
import pytest

from repro.cloud.instance import InstanceFamily, VMConfig
from repro.core.optimize import (
    ConfigOption,
    MCKPTable,
    StageOptions,
    solve_mckp_dp,
)
from repro.eda.job import EDAStage
from repro.verify.generators import random_mckp_instance

pytestmark = pytest.mark.fleet


def _choices(selection):
    return {
        stage.value: (opt.vm.name, opt.runtime_seconds)
        for stage, opt in selection.choices.items()
    }


class TestTableReuse:
    @pytest.mark.parametrize("seed", range(100))
    def test_every_smaller_deadline_matches_fresh_solve(self, seed):
        rng = random.Random(seed)
        stages, deadline = random_mckp_instance(rng)
        slowest = sum(
            max(o.runtime_seconds for o in s.options) for s in stages
        )
        capacity = slowest + 10
        table = MCKPTable(stages, capacity)
        # Sweep a deadline ladder from clearly-infeasible to slack.
        for d in range(1, capacity + 1, max(1, capacity // 17)):
            reused = table.query(d)
            fresh = solve_mckp_dp(stages, d)
            assert (reused is None) == (fresh is None), f"deadline {d}"
            if fresh is not None:
                assert _choices(reused) == _choices(fresh), f"deadline {d}"

    def test_query_beyond_capacity_raises(self):
        stages, deadline = random_mckp_instance(random.Random(0))
        table = MCKPTable(stages, deadline)
        with pytest.raises(ValueError):
            table.query(table.capacity + 1)

    def test_query_at_capacity_matches_solver(self):
        stages, deadline = random_mckp_instance(random.Random(7))
        table = MCKPTable(stages, deadline)
        fresh = solve_mckp_dp(stages, deadline)
        got = table.query(deadline)
        assert (got is None) == (fresh is None)
        if fresh is not None:
            assert _choices(got) == _choices(fresh)

    def test_nonpositive_deadline_rejected(self):
        stages, _ = random_mckp_instance(random.Random(1))
        with pytest.raises(ValueError):
            MCKPTable(stages, 0)
        table = MCKPTable(stages, 10)
        with pytest.raises(ValueError):
            table.query(0)

    def test_solver_delegates_to_table(self):
        # solve_mckp_dp is now a build-and-query; the two paths must
        # stay literally interchangeable.
        stages, deadline = random_mckp_instance(random.Random(21))
        via_solver = solve_mckp_dp(stages, deadline)
        via_table = MCKPTable(stages, deadline).query(deadline)
        assert (via_solver is None) == (via_table is None)
        if via_solver is not None:
            assert _choices(via_solver) == _choices(via_table)


def _scalar_reference(stages, capacity, maximize_inverse_price):
    """The scalar per-state DP recurrence: the vectorized table's reference.

    Returns every stage's value list, every stage's choice list, and a
    ``query(d)`` that picks the best state by a linear ``max`` scan and
    backtracks as :meth:`MCKPTable.query` does.
    """
    neg_inf = float("-inf")
    value = [0.0 if c == 0 else neg_inf for c in range(capacity + 1)]
    values, choices = [], []
    for stage_opts in stages:
        new_value = [neg_inf] * (capacity + 1)
        new_choice = [-1] * (capacity + 1)
        for j, opt in enumerate(stage_opts.options):
            t = opt.runtime_seconds
            gain = opt.inverse_price if maximize_inverse_price else -opt.price
            for c in range(t, capacity + 1):
                prev = value[c - t]
                if prev == neg_inf:
                    continue
                candidate = prev + gain
                if candidate > new_value[c]:
                    new_value[c] = candidate
                    new_choice[c] = j
        value = new_value
        values.append(value)
        choices.append(new_choice)

    def query(d):
        best_c = max(range(d + 1), key=lambda c: value[c], default=0)
        if value[best_c] == neg_inf:
            return None
        picked, c = {}, best_c
        for stage_idx in range(len(stages) - 1, -1, -1):
            j = choices[stage_idx][c]
            if j < 0:
                return None
            opt = stages[stage_idx].options[j]
            picked[stages[stage_idx].stage] = opt
            c -= opt.runtime_seconds
        return picked

    return values, choices, query


def _tie_heavy_instance(rng):
    """Small runtime/price pools force duplicate options and exact ties.

    Prices are powers of two, so distinct option mixes often sum to the
    very same float; some runtimes exceed the capacity.
    """
    num_stages = 1 if rng.random() < 0.25 else rng.randint(2, 4)
    runtimes = [rng.randint(1, 30) for _ in range(3)]
    prices = [0.25, 0.5, 1.0, 2.0]
    stages = []
    for i, stage in enumerate(EDAStage.ordered()[:num_stages]):
        options = []
        for j in range(rng.randint(1, 5)):
            vm = VMConfig(
                name=f"tie{i}.{j}",
                family=rng.choice(list(InstanceFamily)),
                vcpus=1,
                memory_gb=4.0,
                price_per_hour=1.0,
            )
            options.append(
                ConfigOption(
                    vm=vm,
                    runtime_seconds=rng.choice(runtimes),
                    price=rng.choice(prices),
                )
            )
        stages.append(StageOptions(stage=stage, options=options))
    slowest = sum(max(o.runtime_seconds for o in s.options) for s in stages)
    capacity = rng.randint(1, slowest + 10)
    if rng.random() < 0.3:
        # One option no deadline up to the capacity can ever afford.
        stages[-1].options.append(
            ConfigOption(
                vm=stages[-1].options[0].vm,
                runtime_seconds=capacity + rng.randint(1, 20),
                price=rng.choice(prices),
            )
        )
    return stages, capacity


def _bits(array):
    return np.asarray(array, dtype=np.float64).tobytes()


class TestScalarRecurrence:
    @pytest.mark.parametrize("seed", range(200))
    @pytest.mark.parametrize("maximize", [True, False])
    def test_vectorized_table_is_the_scalar_table(self, seed, maximize):
        rng = random.Random(seed)
        if seed % 2:
            stages, capacity = random_mckp_instance(rng)
        else:
            stages, capacity = _tie_heavy_instance(rng)
        values, choices, query = _scalar_reference(
            stages, capacity, maximize
        )
        table = MCKPTable(stages, capacity, maximize)

        # Stage l's value array is the final one of the table over the
        # first l + 1 stages (the recurrence never looks ahead).
        for stage_idx, expected in enumerate(values):
            prefix = MCKPTable(stages[: stage_idx + 1], capacity, maximize)
            assert _bits(prefix._value) == _bits(expected), stage_idx
        assert _bits(table._value) == _bits(values[-1])
        for got, expected in zip(table._choices, choices):
            assert got.tolist() == expected

        final = values[-1]
        assert table._best.tolist() == [
            max(range(c + 1), key=final.__getitem__)
            for c in range(capacity + 1)
        ]
        for d in range(1, capacity + 1):
            got = table.query(d)
            expected = query(d)
            assert (got is None) == (expected is None), d
            if got is not None:
                assert got.choices.keys() == expected.keys(), d
                assert all(
                    got.choices[stage] is expected[stage] for stage in expected
                ), d
