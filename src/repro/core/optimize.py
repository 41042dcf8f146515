"""Cloud deployment optimization via multi-choice knapsack (Problem 3).

Given per-stage runtimes under each VM configuration and a total-runtime
(deadline) constraint ``C``, select exactly one configuration per stage.
The paper maps this to the Multi-Choice Knapsack Problem (MCKP):

.. math::

    z_l(C) = \\max \\sum_{i,j} s_{ij} \\frac{1}{p_{ij}}
    \\quad\\text{s.t.}\\quad \\sum_{i,j} s_{ij} t_{ij} \\le C,\\;
    \\sum_j s_{ij} = 1

and solves it optimally with the Dudzinski-Walukiewicz pseudo-polynomial
dynamic program, runtimes rounded to whole seconds (valid because cloud
VMs bill per second).

Besides the paper's objective (maximize the sum of *price reciprocals*)
this module implements direct cost minimization — the two are **not** the
same objective, and the ablation benchmark quantifies when they diverge —
plus brute-force and greedy references, and the over-/under-provisioning
baselines of Figure 6.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..cloud.instance import VMConfig
from ..cloud.pricing import PricingTable, aws_like_catalog
from ..cloud.provisioner import RECOMMENDED_FAMILY, DeploymentPlan
from ..eda.job import EDAStage

__all__ = [
    "ConfigOption",
    "StageOptions",
    "Selection",
    "MCKPTable",
    "ApproxResult",
    "build_stage_options",
    "prune_dominated",
    "prune_stage_options",
    "solve_mckp_dp",
    "solve_min_cost_dp",
    "solve_approx",
    "solve_brute_force",
    "enumerate_feasible",
    "selection_objective",
    "solve_greedy",
    "over_provisioning",
    "under_provisioning",
    "cost_saving_percent",
]


@dataclass(frozen=True)
class ConfigOption:
    """One selectable (VM, runtime) pair for a stage.

    ``runtime_seconds`` is pre-rounded to a whole second; ``price`` is the
    total cost of the stage on this VM.
    """

    vm: VMConfig
    runtime_seconds: int
    price: float

    @property
    def inverse_price(self) -> float:
        """The paper's per-item value, ``1 / p_ij``."""
        return 1.0 / self.price

    @property
    def label(self) -> str:
        return f"{self.vm.name}@{self.vm.vcpus}v"


@dataclass
class StageOptions:
    """All configurations available to one flow stage."""

    stage: EDAStage
    options: List[ConfigOption]

    def __post_init__(self) -> None:
        if not self.options:
            raise ValueError(f"stage {self.stage.value} has no options")

    @property
    def fastest(self) -> ConfigOption:
        return min(self.options, key=lambda o: o.runtime_seconds)

    @property
    def cheapest(self) -> ConfigOption:
        return min(self.options, key=lambda o: o.price)


@dataclass
class Selection:
    """A complete one-option-per-stage assignment."""

    choices: Dict[EDAStage, ConfigOption] = field(default_factory=dict)

    @property
    def total_runtime(self) -> int:
        return sum(o.runtime_seconds for o in self.choices.values())

    @property
    def total_cost(self) -> float:
        return sum(o.price for o in self.choices.values())

    @property
    def objective_inverse_price(self) -> float:
        return sum(o.inverse_price for o in self.choices.values())

    def to_plan(self, design: str) -> DeploymentPlan:
        """Convert to a :class:`~repro.cloud.provisioner.DeploymentPlan`."""
        plan = DeploymentPlan(design=design)
        for stage in EDAStage.ordered():
            if stage in self.choices:
                opt = self.choices[stage]
                plan.add(stage, opt.vm, opt.runtime_seconds)
        return plan


def build_stage_options(
    stage_runtimes: Mapping[EDAStage, Mapping[int, float]],
    catalog: Optional[PricingTable] = None,
    families: Optional[Mapping[EDAStage, object]] = None,
) -> List[StageOptions]:
    """Build the MCKP item classes from runtimes and the pricing table.

    ``stage_runtimes[stage][vcpus]`` gives the (predicted or measured)
    runtime in seconds; each stage's VM family follows the
    characterization's recommendation unless overridden.
    """
    catalog = catalog if catalog is not None else aws_like_catalog()
    families = families if families is not None else RECOMMENDED_FAMILY
    out: List[StageOptions] = []
    for stage in EDAStage.ordered():
        if stage not in stage_runtimes:
            continue
        options: List[ConfigOption] = []
        for vcpus, runtime in sorted(stage_runtimes[stage].items()):
            vm = catalog.config(families[stage], vcpus)
            seconds = max(1, int(round(runtime)))
            options.append(
                ConfigOption(vm=vm, runtime_seconds=seconds, price=vm.cost(seconds))
            )
        out.append(StageOptions(stage=stage, options=options))
    return out


def _check_deadline(stages: Sequence[StageOptions], deadline_seconds: float) -> int:
    if deadline_seconds <= 0:
        raise ValueError("deadline must be positive")
    return int(math.floor(deadline_seconds))


def solve_mckp_dp(
    stages: Sequence[StageOptions], deadline_seconds: float
) -> Optional[Selection]:
    """Optimal MCKP solution, maximizing Σ 1/p (the paper's objective).

    Pseudo-polynomial dynamic programming over integer seconds
    (Dudzinski & Walukiewicz); returns ``None`` when the deadline cannot be
    met even with the fastest configuration everywhere (the paper's "NA").
    """
    return _solve_dp(stages, deadline_seconds, maximize_inverse_price=True)


def solve_min_cost_dp(
    stages: Sequence[StageOptions], deadline_seconds: float
) -> Optional[Selection]:
    """Optimal deadline-constrained *minimum total cost* selection.

    Same DP skeleton with the direct objective; kept for the objective
    ablation (Σ 1/p maximization is not cost minimization).
    """
    return _solve_dp(stages, deadline_seconds, maximize_inverse_price=False)


class MCKPTable:
    """A solved DP table reusable across every deadline up to its capacity.

    The DP recurrence indexes states by *exact* total runtime ``c`` and
    only ever reads states at strictly smaller ``c``, so the table built
    to capacity ``C`` contains, as a prefix, exactly the table a fresh
    solve at any ``d <= C`` would build — option iteration order, cell
    tie-breaking, and backtracking included.  :meth:`query` therefore
    returns a selection *identical* (same option objects, same
    tie-breaks) to ``solve_mckp_dp(stages, d)``, which is the invariant
    the fleet planner's table reuse rests on and the ``fleet`` oracle
    fuzzes.
    """

    def __init__(
        self,
        stages: Sequence[StageOptions],
        capacity_seconds: float,
        maximize_inverse_price: bool = True,
    ):
        self.stages = list(stages)
        self.capacity = _check_deadline(self.stages, capacity_seconds)
        self.maximize_inverse_price = maximize_inverse_price
        size = self.capacity + 1

        # value[c] = best objective over all stages with total time exactly
        # c; choices[l][c] backtracks stage l's option index at state c.
        # Each option relaxes every state at once: within one option the
        # states are independent, and a ``-inf + gain`` candidate never
        # wins the strict ``>``, so this is the scalar recurrence bit for
        # bit (same IEEE additions, same first-option-wins tie-breaks).
        value = np.full(size, -np.inf)
        value[0] = 0.0
        choices: List[np.ndarray] = []
        for stage_opts in self.stages:
            new_value = np.full(size, -np.inf)
            new_choice = np.full(size, -1, dtype=np.int64)
            for j, opt in enumerate(stage_opts.options):
                t = opt.runtime_seconds
                if t >= size:
                    continue
                gain = (
                    opt.inverse_price if maximize_inverse_price else -opt.price
                )
                candidate = value[: size - t] + gain
                better = candidate > new_value[t:]
                new_value[t:][better] = candidate[better]
                new_choice[t:][better] = j
            value = new_value
            choices.append(new_choice)
        self._value = value
        self._choices = choices
        # best[c] = first state in 0..c holding the highest value, i.e.
        # max(range(c + 1), key=value.__getitem__): the prefix maximum
        # changes only where a value strictly exceeds every earlier one.
        running = np.maximum.accumulate(value)
        rises = np.zeros(size, dtype=np.int64)
        rises[1:] = np.where(
            value[1:] > running[:-1], np.arange(1, size), 0
        )
        self._best = np.maximum.accumulate(rises)

    def best_state(self, deadline_seconds: float) -> int:
        """The DP state :meth:`query` backtracks from for this deadline.

        Deadlines with the same best state get the same selection.
        """
        capacity = _check_deadline(self.stages, deadline_seconds)
        if capacity > self.capacity:
            raise ValueError(
                f"deadline {capacity} exceeds table capacity {self.capacity}"
            )
        return int(self._best[capacity])

    def query(self, deadline_seconds: float) -> Optional[Selection]:
        """The optimal selection under any deadline ``<=`` the capacity."""
        best_c = self.best_state(deadline_seconds)
        if not self.stages:
            return Selection()
        if self._value[best_c] == -np.inf:
            return None

        # Backtrack.
        selection = Selection()
        c = best_c
        for stage_idx in range(len(self.stages) - 1, -1, -1):
            j = int(self._choices[stage_idx][c])
            if j < 0:
                return None
            opt = self.stages[stage_idx].options[j]
            selection.choices[self.stages[stage_idx].stage] = opt
            c -= opt.runtime_seconds
        return selection


def _solve_dp(
    stages: Sequence[StageOptions],
    deadline_seconds: float,
    maximize_inverse_price: bool,
) -> Optional[Selection]:
    if not stages:
        return Selection()
    table = MCKPTable(stages, deadline_seconds, maximize_inverse_price)
    return table.query(deadline_seconds)


def selection_objective(
    selection: Selection, maximize_inverse_price: bool = True
) -> float:
    """Objective value of a selection under either MCKP objective.

    Returns Σ 1/p for the paper's objective, or the (positive) total cost
    for the min-cost objective — the quantity the solvers optimize, in a
    form the differential oracles can compare across solvers whose tie
    breaking differs.
    """
    if maximize_inverse_price:
        return selection.objective_inverse_price
    return selection.total_cost


def prune_dominated(options: Sequence[ConfigOption]) -> List[ConfigOption]:
    """Drop IP-dominated options; survivors keep their original order.

    Option ``b`` is dominated when some ``a`` is no slower *and* no more
    expensive (strictly better on at least one axis; exact ``(runtime,
    price)`` duplicates keep the earliest).  A dominator is at least as
    good under both DP objectives — swapping it in never lengthens the
    schedule, never raises cost, and never lowers ``1/p`` — so pruning
    preserves the optimum of both ``solve_mckp_dp`` and
    ``solve_min_cost_dp`` exactly (the fleet property suite asserts it).
    """
    survivors: List[ConfigOption] = []
    for i, opt in enumerate(options):
        dominated = False
        for j, other in enumerate(options):
            if j == i:
                continue
            if (
                other.runtime_seconds <= opt.runtime_seconds
                and other.price <= opt.price
                and (
                    other.runtime_seconds < opt.runtime_seconds
                    or other.price < opt.price
                    or j < i
                )
            ):
                dominated = True
                break
        if not dominated:
            survivors.append(opt)
    return survivors


def prune_stage_options(
    stages: Sequence[StageOptions],
) -> Tuple[List[StageOptions], int]:
    """Dominance-prune every stage menu; returns ``(stages, removed)``."""
    removed = 0
    out: List[StageOptions] = []
    for stage_opts in stages:
        kept = prune_dominated(stage_opts.options)
        removed += len(stage_opts.options) - len(kept)
        out.append(
            stage_opts
            if len(kept) == len(stage_opts.options)
            else StageOptions(stage=stage_opts.stage, options=kept)
        )
    return out, removed


def _lp_frontier(options: Sequence[ConfigOption]) -> List[ConfigOption]:
    """The convex (runtime, 1/p) frontier of one stage menu.

    IP-pruned survivors sorted by runtime have strictly increasing
    runtime and strictly increasing value, so incremental efficiencies
    are well defined; the upper concave hull (Sinha-Zoltners) keeps the
    points the MCKP LP relaxation can mix, which is what makes the
    greedy walk's fractional stopping value a true upper bound.
    """
    pruned = sorted(
        prune_dominated(options), key=lambda o: (o.runtime_seconds, o.price)
    )
    hull: List[ConfigOption] = []
    for opt in pruned:
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            eff_ab = (b.inverse_price - a.inverse_price) / (
                b.runtime_seconds - a.runtime_seconds
            )
            eff_bo = (opt.inverse_price - b.inverse_price) / (
                opt.runtime_seconds - b.runtime_seconds
            )
            if eff_ab <= eff_bo:
                hull.pop()
            else:
                break
        hull.append(opt)
    return hull


@dataclass(frozen=True)
class ApproxResult:
    """A feasible approximate selection with a certified optimality gap.

    ``upper_bound`` is the MCKP LP-relaxation optimum (greedy hull walk
    with a fractional final step), so ``objective <= exact optimum <=
    upper_bound`` up to float rounding, and :attr:`certified_gap` always
    dominates the true gap — the ``fleet`` oracle fuzzes this against
    the exact DP.
    """

    selection: Selection
    objective: float
    upper_bound: float

    @property
    def certified_gap(self) -> float:
        """Certified bound on ``optimum - objective`` (never negative)."""
        return max(0.0, self.upper_bound - self.objective)


def solve_approx(
    stages: Sequence[StageOptions], deadline_seconds: float
) -> Optional[ApproxResult]:
    """Fast certified approximation of the paper's MCKP objective.

    Classic MCKP greedy over the LP frontier: start every stage at its
    lightest frontier option, then buy upgrades in globally decreasing
    incremental efficiency (``Δ(1/p)/Δt``) while they fit.  The first
    upgrade that does *not* fit fixes the LP optimum ``value +
    remaining * efficiency`` — an upper bound on the integer optimum —
    after which the walk keeps taking cheaper upgrades that still fit.
    Runs in ``O(n log n)`` for ``n`` total options versus the DP's
    ``O(n * deadline)``, and returns ``None`` exactly when the DP would
    (both detect infeasibility as "fastest everywhere still misses the
    deadline").
    """
    capacity = _check_deadline(stages, deadline_seconds)
    if not stages:
        return ApproxResult(selection=Selection(), objective=0.0, upper_bound=0.0)
    fronts = [_lp_frontier(s.options) for s in stages]
    base_runtime = sum(f[0].runtime_seconds for f in fronts)
    if base_runtime > capacity:
        return None

    levels = [0] * len(fronts)
    value = sum(f[0].inverse_price for f in fronts)
    remaining = capacity - base_runtime

    # (negated efficiency, stage index, hull level, dt, dv), globally
    # sorted; ties resolved by stage then level so the walk is
    # deterministic and same-stage steps stay in hull order.
    steps: List[Tuple[float, int, int, int, float]] = []
    for si, front in enumerate(fronts):
        for k in range(1, len(front)):
            dt = front[k].runtime_seconds - front[k - 1].runtime_seconds
            dv = front[k].inverse_price - front[k - 1].inverse_price
            steps.append((-dv / dt, si, k, dt, dv))
    steps.sort(key=lambda s: (s[0], s[1], s[2]))

    upper_bound: Optional[float] = None
    for neg_eff, si, k, dt, dv in steps:
        if levels[si] != k - 1:
            continue  # an earlier hull step of this stage did not fit
        if dt <= remaining:
            remaining -= dt
            value += dv
            levels[si] = k
        elif upper_bound is None:
            upper_bound = value + remaining * (-neg_eff)

    selection = Selection(
        choices={
            stages[si].stage: fronts[si][levels[si]]
            for si in range(len(fronts))
        }
    )
    objective = selection.objective_inverse_price
    if upper_bound is None:
        # Every hull top was bought: each stage sits at its maximum
        # value, so no selection (dominated or not) can do better.
        upper_bound = objective
    return ApproxResult(
        selection=selection,
        objective=objective,
        upper_bound=max(upper_bound, objective),
    )


def enumerate_feasible(
    stages: Sequence[StageOptions], deadline_seconds: float
) -> Iterator[Selection]:
    """Yield every deadline-feasible one-option-per-stage selection.

    Exhaustive (exponential in the stage count); shared by the brute-force
    solvers and the verification oracles, which use it to cross-check DP
    feasibility claims against ground truth.
    """
    capacity = _check_deadline(stages, deadline_seconds)
    for combo in itertools.product(*[s.options for s in stages]):
        total_t = sum(o.runtime_seconds for o in combo)
        if total_t > capacity:
            continue
        yield Selection(choices={s.stage: o for s, o in zip(stages, combo)})


def solve_brute_force(
    stages: Sequence[StageOptions],
    deadline_seconds: float,
    maximize_inverse_price: bool = True,
) -> Optional[Selection]:
    """Exhaustive reference solver (exponential; for tests and oracles)."""
    best: Optional[Selection] = None
    best_key: Optional[Tuple[float, float]] = None
    for selection in enumerate_feasible(stages, deadline_seconds):
        objective = selection_objective(selection, maximize_inverse_price)
        sign = 1.0 if maximize_inverse_price else -1.0
        key = (sign * objective, -selection.total_runtime)
        if best_key is None or key > best_key:
            best_key = key
            best = selection
    return best


def solve_greedy(
    stages: Sequence[StageOptions], deadline_seconds: float
) -> Optional[Selection]:
    """Greedy heuristic: start cheapest, buy speed with the best time/$ ratio.

    Not optimal — kept as the quality baseline for the solver ablation.
    """
    capacity = _check_deadline(stages, deadline_seconds)
    selection = Selection(
        choices={s.stage: s.cheapest for s in stages}
    )
    stage_by_name = {s.stage: s for s in stages}
    while selection.total_runtime > capacity:
        best_stage: Optional[EDAStage] = None
        best_option: Optional[ConfigOption] = None
        best_ratio = -1.0
        for stage, current in selection.choices.items():
            for opt in stage_by_name[stage].options:
                saved = current.runtime_seconds - opt.runtime_seconds
                extra = opt.price - current.price
                if saved <= 0:
                    continue
                ratio = saved / max(extra, 1e-9)
                if ratio > best_ratio:
                    best_ratio = ratio
                    best_stage = stage
                    best_option = opt
        if best_stage is None or best_option is None:
            return None  # cannot meet the deadline
        selection.choices[best_stage] = best_option
    return selection


def over_provisioning(stages: Sequence[StageOptions]) -> Selection:
    """Run every stage on the largest vCPU configuration (Figure 6 baseline)."""
    return Selection(
        choices={s.stage: max(s.options, key=lambda o: o.vm.vcpus) for s in stages}
    )


def under_provisioning(stages: Sequence[StageOptions]) -> Selection:
    """Run every stage on the smallest vCPU configuration (Figure 6 baseline)."""
    return Selection(
        choices={s.stage: min(s.options, key=lambda o: o.vm.vcpus) for s in stages}
    )


def cost_saving_percent(optimized_cost: float, baseline_cost: float) -> float:
    """Percentage saved relative to a baseline (Figure 6's y-axis)."""
    if baseline_cost <= 0:
        raise ValueError("baseline cost must be positive")
    return 100.0 * (baseline_cost - optimized_cost) / baseline_cost
