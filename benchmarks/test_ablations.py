"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures: they quantify the consequences of
the choices the paper made (and the ones we had to make) —

* the MCKP objective (max sum 1/p) vs direct cost minimization,
* the optimal DP vs a greedy heuristic,
* per-second billing (runtime rounding granularity),
* the star vs clique net model,
* synthesis recipe depth (quality vs runtime),
* branch-predictor choice in the perf substrate.
"""

import random

import numpy as np

from repro.cloud import InstanceFamily, VMConfig
from repro.core.optimize import (
    ConfigOption,
    StageOptions,
    solve_greedy,
    solve_mckp_dp,
    solve_min_cost_dp,
)
from repro.core.report import format_table
from repro.eda.job import EDAStage
from repro.eda.synthesis import SynthesisEngine
from repro.netlist import benchmarks, netlist_to_clique_graph, netlist_to_star_graph
from repro.perf.branch import GSharePredictor, TwoBitPredictor


def _random_instances(count, seed=0):
    rng = random.Random(seed)
    stage_names = list(EDAStage.ordered())
    instances = []
    for _ in range(count):
        stages = []
        for i in range(rng.randint(2, 4)):
            options = []
            base_t = rng.randint(50, 2000)
            base_p = rng.uniform(0.05, 0.5)
            for j, v in enumerate((1, 2, 4, 8)):
                t = max(1, int(base_t / (1 + 0.8 * j)))
                p = base_p * (1 + 0.45 * j) * t / base_t
                options.append(
                    ConfigOption(
                        vm=VMConfig(
                            f"vm{i}_{j}_{rng.random():.6f}",
                            InstanceFamily.GENERAL_PURPOSE,
                            v,
                            4.0 * v,
                            max(p, 0.001) * 3600 / t,
                        ),
                        runtime_seconds=t,
                        price=max(p, 0.001),
                    )
                )
            stages.append(StageOptions(stage=stage_names[i], options=options))
        fastest = sum(s.fastest.runtime_seconds for s in stages)
        slowest = sum(s.options[0].runtime_seconds for s in stages)
        deadline = rng.uniform(fastest, slowest + 1)
        instances.append((stages, deadline))
    return instances


def test_ablation_objective_inverse_price_vs_min_cost():
    """The paper maximizes sum(1/p); direct cost minimization can differ.

    Measures how often and by how much the two objectives diverge over
    random pricing instances.
    """
    diffs = []
    for stages, deadline in _random_instances(120, seed=3):
        inv = solve_mckp_dp(stages, deadline)
        cost = solve_min_cost_dp(stages, deadline)
        if inv is None or cost is None:
            continue
        diffs.append((inv.total_cost, cost.total_cost))
    worse = [(a - b) / b for a, b in diffs if a > b + 1e-12]
    print(
        f"\nobjective ablation: {len(diffs)} feasible instances, "
        f"{len(worse)} where max-sum(1/p) pays more than min-cost "
        f"(mean overpay {100 * np.mean(worse) if worse else 0:.2f}%, "
        f"max {100 * max(worse) if worse else 0:.2f}%)"
    )
    # min-cost is by definition never more expensive.
    assert all(a >= b - 1e-9 for a, b in diffs)
    # The divergence exists but is bounded on realistic menus.
    if worse:
        assert max(worse) < 0.8


def test_ablation_greedy_vs_optimal():
    """The greedy heuristic is near-optimal but not optimal."""
    gaps = []
    failures = 0
    for stages, deadline in _random_instances(120, seed=11):
        opt = solve_min_cost_dp(stages, deadline)
        greedy = solve_greedy(stages, deadline)
        if opt is None:
            continue
        if greedy is None:
            failures += 1
            continue
        gaps.append((greedy.total_cost - opt.total_cost) / opt.total_cost)
    print(
        f"\ngreedy ablation: mean gap {100 * np.mean(gaps):.2f}%, "
        f"max gap {100 * max(gaps):.2f}%, infeasible-miss {failures}"
    )
    assert np.mean(gaps) < 0.25

    # Deterministic adversarial case where the ratio-greedy provably loses:
    # upgrading the "best ratio" stage first strands budget.
    def _opt(stage, entries):
        return StageOptions(
            stage=stage,
            options=[
                ConfigOption(
                    vm=VMConfig(
                        f"adv_{stage.value}_{i}",
                        InstanceFamily.GENERAL_PURPOSE,
                        2 ** i,
                        4.0 * 2 ** i,
                        1.0,
                    ),
                    runtime_seconds=t,
                    price=p,
                )
                for i, (t, p) in enumerate(entries)
            ],
        )

    adversarial = [
        _opt(EDAStage.SYNTHESIS, [(10, 1.0), (2, 1.5)]),
        _opt(EDAStage.PLACEMENT, [(10, 1.0), (5, 1.2)]),
    ]
    greedy_sel = solve_greedy(adversarial, 12)
    optimal_sel = solve_min_cost_dp(adversarial, 12)
    assert greedy_sel is not None and optimal_sel is not None
    print(
        f"adversarial case: greedy ${greedy_sel.total_cost:.2f} vs "
        f"optimal ${optimal_sel.total_cost:.2f}"
    )
    assert greedy_sel.total_cost > optimal_sel.total_cost  # greedy is not optimal


def test_ablation_billing_granularity(paper_stage_options):
    """Per-second billing justifies rounding; coarser billing costs money."""
    rows = []
    base = solve_mckp_dp(paper_stage_options, 10_000)
    for granularity in (1, 60, 3600):
        total = 0.0
        for stage_opts in paper_stage_options:
            opt = base.choices[stage_opts.stage]
            units = -(-opt.runtime_seconds // granularity)  # ceil
            total += units * granularity * opt.vm.price_per_second
        rows.append((granularity, total))
    print("\nbilling granularity ablation:")
    for granularity, total in rows:
        print(f"  {granularity:>5}s units -> ${total:.4f}")
    per_second = rows[0][1]
    per_hour = rows[-1][1]
    assert per_hour > per_second  # hourly billing always costs more
    assert rows[1][1] >= per_second


def test_ablation_star_vs_clique_net_model():
    """The paper's star model vs the clique alternative.

    Cliques blow up quadratically on high-fanout nets — the reason the
    paper (and every placer) prefers the star model for large designs.
    """
    netlist = SynthesisEngine().run(benchmarks.build("sparc_core", 0.8)).artifact
    star = netlist_to_star_graph(netlist)
    clique = netlist_to_clique_graph(netlist)
    ratio = clique.num_edges / star.num_edges
    max_fanout = max(net.fanout for net in netlist.nets.values())
    print(
        f"\nstar: {star.num_edges} edges; clique: {clique.num_edges} edges "
        f"({ratio:.1f}x); max fanout {max_fanout}"
    )
    assert clique.num_edges > 2 * star.num_edges
    assert star.num_edges == sum(n.fanout for n in netlist.nets.values())


def test_ablation_synthesis_recipe_depth():
    """Longer recipes buy area at the cost of synthesis runtime."""
    aig = benchmarks.build("sparc_core", 0.8)
    engine = SynthesisEngine()
    recipes = {
        "none": (),
        "balance": ("balance",),
        "resyn": ("balance", "rewrite", "balance"),
        "resyn2": ("balance", "rewrite", "balance", "refactor", "balance"),
    }
    results = {name: engine.run(aig, recipe=recipe) for name, recipe in recipes.items()}
    rows = [
        [
            name,
            f"{r.metrics['optimized_ands']:.0f}",
            f"{r.metrics['area']:.1f}",
            f"{r.metrics['depth']:.0f}",
            f"{r.runtime(1):,.0f}",
        ]
        for name, r in results.items()
    ]
    print("\n" + format_table(["recipe", "ANDs", "area", "depth", "runtime@1v"], rows))
    areas = {name: r.metrics["area"] for name, r in results.items()}
    runtimes = {name: r.runtime(1) for name, r in results.items()}
    assert areas["resyn2"] <= areas["none"]
    assert runtimes["resyn2"] > runtimes["balance"]


def test_ablation_branch_predictor_choice():
    """Perf-substrate sensitivity: gshare vs 2-bit on the router's stream.

    The characterization's *ordering* must not hinge on the predictor
    model: routing stays the worst-predicted workload under both.
    """
    rng = random.Random(0)
    # Representative streams: routing (data-dependent), synthesis (biased),
    # placement (loop-dominated).
    streams = {
        "routing": [rng.random() < 0.5 for _ in range(4000)],
        "synthesis": [rng.random() < 0.82 for _ in range(4000)],
        "placement": ([True] * 63 + [False]) * 62,
    }
    rates = {
        name: (
            TwoBitPredictor().process([7] * len(outcomes), outcomes) / len(outcomes),
            GSharePredictor().process([7] * len(outcomes), outcomes) / len(outcomes),
        )
        for name, outcomes in streams.items()
    }
    print("\npredictor ablation (miss rates):")
    for name, (tb, gs) in rates.items():
        print(f"  {name:10s} 2-bit {100 * tb:5.1f}%  gshare {100 * gs:5.1f}%")
    for model_idx in (0, 1):
        assert rates["routing"][model_idx] > rates["synthesis"][model_idx]
        assert rates["synthesis"][model_idx] > rates["placement"][model_idx]


def test_ablation_spot_market(paper_stage_options):
    """Extension ablation: mixing spot instances into the MCKP menu.

    With relaxed deadlines, interruptible capacity cuts costs well below
    the paper's on-demand optimum; tight deadlines force on-demand back in
    because the spot options' *expected* runtimes no longer fit.
    """
    from repro.cloud import SpotMarket

    market = SpotMarket(discount=0.3, interrupt_rate_per_hour=0.05)
    augmented = market.augment_stage_options(paper_stage_options)
    fastest = sum(s.fastest.runtime_seconds for s in paper_stage_options)
    slowest = sum(s.options[0].runtime_seconds for s in paper_stage_options)
    rows = []
    for deadline in (fastest, (fastest + slowest) // 2, 2 * slowest):
        on_demand = solve_min_cost_dp(paper_stage_options, deadline)
        mixed = solve_min_cost_dp(augmented, deadline)
        rows.append((deadline, on_demand, mixed))
    print("\nspot-market ablation:")
    for deadline, on_demand, mixed in rows:
        od = f"${on_demand.total_cost:.3f}" if on_demand else "NA"
        mx = f"${mixed.total_cost:.3f}" if mixed else "NA"
        spot_used = (
            sum(1 for o in mixed.choices.values() if "spot" in o.vm.name)
            if mixed
            else 0
        )
        print(f"  deadline {deadline:>8,}: on-demand {od}, mixed {mx} "
              f"({spot_used} stages on spot)")
    # Spot never hurts (it only adds options)...
    for _deadline, on_demand, mixed in rows:
        if on_demand and mixed:
            assert mixed.total_cost <= on_demand.total_cost + 1e-9
    # ...and wins decisively when the deadline is relaxed.
    _d, od_relaxed, mixed_relaxed = rows[-1]
    assert mixed_relaxed.total_cost < 0.6 * od_relaxed.total_cost
    assert any("spot" in o.vm.name for o in mixed_relaxed.choices.values())
