"""Seeded random instance generators for the differential verifier.

Every generator takes a ``random.Random`` and produces one instance small
enough for its brute-force / exhaustive oracle to check in milliseconds:

* MCKP instances stay within 4 stages x 4 options so the exhaustive
  reference enumerates at most 256 selections,
* task graphs stay under ~25 tasks,
* AIGs stay within 6 primary inputs so exhaustive truth tables fit a
  single 64-bit simulation word.

Determinism contract: the same ``Random`` state always yields the same
instance, which is what makes fuzz failures replayable from a printed
seed (see :mod:`repro.verify.fuzz`).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..cloud.executor import ExecutionPolicy, RetryPolicy
from ..cloud.faults import FaultProfile
from ..cloud.instance import InstanceFamily, VMConfig
from ..cloud.provisioner import DeploymentPlan
from ..core.optimize import ConfigOption, StageOptions
from ..eda.job import EDAStage
from ..netlist.aig import AIG, CONST_TRUE, lit_not
from ..parallel.taskgraph import TaskGraph

__all__ = [
    "random_mckp_instance",
    "random_task_graph",
    "random_aig",
    "random_recipe",
    "random_spot_params",
    "random_fault_profile",
    "random_execution_policy",
    "random_execution_case",
    "random_convergence_params",
    "random_service_case",
    "random_fleet_case",
]

#: Synthesis pass pool used by :func:`random_recipe`.
RECIPE_POOL = ("balance", "rewrite", "refactor", "shuffle")


def random_mckp_instance(
    rng: random.Random,
) -> Tuple[List[StageOptions], int]:
    """Random small MCKP instance: (stage option lists, deadline seconds).

    Deadlines are drawn from slightly below the fastest-everywhere total to
    slightly above the slowest-everywhere total, so the fuzzer exercises
    infeasible, tight, and slack regimes.
    """
    num_stages = rng.randint(1, 4)
    stages: List[StageOptions] = []
    for i, stage in enumerate(EDAStage.ordered()[:num_stages]):
        options: List[ConfigOption] = []
        for j in range(rng.randint(1, 4)):
            vcpus = 2 ** rng.randint(0, 4)
            vm = VMConfig(
                name=f"fz{i}.{j}",
                family=rng.choice(list(InstanceFamily)),
                vcpus=vcpus,
                memory_gb=4.0 * vcpus,
                price_per_hour=round(rng.uniform(0.05, 3.0), 4),
            )
            runtime = rng.randint(1, 60)
            options.append(
                ConfigOption(
                    vm=vm, runtime_seconds=runtime, price=vm.cost(runtime)
                )
            )
        stages.append(StageOptions(stage=stage, options=options))
    fastest = sum(min(o.runtime_seconds for o in s.options) for s in stages)
    slowest = sum(max(o.runtime_seconds for o in s.options) for s in stages)
    deadline = rng.randint(max(1, fastest - 5), slowest + 10)
    return stages, deadline


def random_task_graph(rng: random.Random) -> Tuple[TaskGraph, int]:
    """Random DAG plus a worker count for the list-scheduler oracle.

    Mixes short and long tasks (two orders of magnitude apart) so the
    schedule stresses both the work-bound and the critical-path-bound side
    of the Graham inequality.
    """
    graph = TaskGraph(name="fuzz")
    num_tasks = rng.randint(1, 25)
    ids: List[int] = []
    for _ in range(num_tasks):
        ndeps = rng.randint(0, min(3, len(ids)))
        deps = rng.sample(ids, ndeps) if ndeps else []
        if rng.random() < 0.5:
            work = rng.uniform(0.01, 1.0)
        else:
            work = rng.uniform(1.0, 100.0)
        ids.append(graph.add_task(work, deps))
    workers = rng.randint(1, 8)
    return graph, workers


def random_aig(rng: random.Random) -> AIG:
    """Random small multi-output AIG (2-6 inputs, up to ~40 operators).

    Operators are drawn over earlier signals (including constants and
    complemented literals), so the graph exercises constant propagation,
    structural hashing, and shared fanout — all the paths the synthesis
    passes must preserve.
    """
    aig = AIG("fuzz")
    num_inputs = rng.randint(2, 6)
    signals: List[int] = [aig.add_input() for _ in range(num_inputs)]
    signals.append(CONST_TRUE)
    for _ in range(rng.randint(3, 40)):
        op = rng.choice(("and", "or", "xor", "mux", "maj"))
        pick = lambda: (
            lit_not(rng.choice(signals))
            if rng.random() < 0.3
            else rng.choice(signals)
        )
        if op == "and":
            signals.append(aig.add_and(pick(), pick()))
        elif op == "or":
            signals.append(aig.add_or(pick(), pick()))
        elif op == "xor":
            signals.append(aig.add_xor(pick(), pick()))
        elif op == "mux":
            signals.append(aig.add_mux(pick(), pick(), pick()))
        else:
            signals.append(aig.add_maj(pick(), pick(), pick()))
    for _ in range(rng.randint(1, 3)):
        out = rng.choice(signals)
        aig.add_output(lit_not(out) if rng.random() < 0.5 else out)
    return aig


def random_recipe(rng: random.Random) -> Tuple[Tuple[str, ...], int]:
    """Random synthesis (recipe, seed) pair for the equivalence oracle."""
    length = rng.randint(1, 3)
    recipe = tuple(rng.choice(RECIPE_POOL) for _ in range(length))
    return recipe, rng.randrange(1 << 30)


def random_spot_params(
    rng: random.Random,
) -> Tuple[float, float, Optional[float]]:
    """Random (runtime, interrupt rate per hour, checkpoint interval).

    Occasionally emits the boundary cases (zero runtime, zero rate, no
    checkpointing) the closed-form limit checks care about.
    """
    runtime = 0.0 if rng.random() < 0.05 else rng.uniform(1.0, 5000.0)
    rate = 0.0 if rng.random() < 0.1 else rng.uniform(0.005, 2.0)
    interval = None if rng.random() < 0.4 else rng.uniform(10.0, 2000.0)
    return runtime, rate, interval


def random_fault_profile(rng: random.Random) -> FaultProfile:
    """Random fault rates spanning calm pools to outright storms.

    The fuzzed stage runtimes are tens of seconds, so preemption rates go
    up to hundreds per hour — that is what makes the K-preemption fallback
    and timeout paths fire inside a 60-second stage.
    """
    return FaultProfile(
        spot_interrupt_rate_per_hour=(
            0.0 if rng.random() < 0.25 else rng.uniform(10.0, 400.0)
        ),
        boot_failure_prob=0.0 if rng.random() < 0.4 else rng.uniform(0.0, 0.2),
        api_error_prob=0.0 if rng.random() < 0.4 else rng.uniform(0.0, 0.2),
        straggler_prob=0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.3),
        straggler_slowdown=rng.uniform(1.1, 2.5),
        checkpoint_interval_seconds=(
            None if rng.random() < 0.35 else rng.uniform(2.0, 40.0)
        ),
    )


def random_execution_policy(rng: random.Random, discount: float) -> ExecutionPolicy:
    """Random robustness policy (retry budgets, fallback cap, timeouts)."""
    return ExecutionPolicy(
        retry=RetryPolicy(
            max_retries=rng.randint(0, 4),
            backoff_base_seconds=rng.uniform(0.5, 5.0),
            backoff_multiplier=rng.uniform(1.0, 3.0),
            backoff_max_seconds=rng.uniform(10.0, 200.0),
            jitter_fraction=rng.uniform(0.0, 0.5),
        ),
        max_preemptions_per_stage=(
            None if rng.random() < 0.2 else rng.randint(1, 5)
        ),
        timeout_stretch=None if rng.random() < 0.3 else rng.uniform(1.5, 6.0),
        replan_on_fallback=rng.random() < 0.8,
        replan_excludes_spot=rng.random() < 0.8,
        spot_discount=discount,
    )


def random_execution_case(rng: random.Random):
    """One executor fuzz case: plan, deadline, profile, policy, seed, menus.

    Builds on :func:`random_mckp_instance`, mints a spot twin for every
    on-demand option (so fallback can find its catalog twin), then picks
    one option per stage — spot-biased, so the preemption machinery is
    exercised — as the plan under execution.
    """
    stages, _ = random_mckp_instance(rng)
    discount = rng.uniform(0.2, 0.5)
    menus: List[StageOptions] = []
    plan = DeploymentPlan(design="fuzz-exec")
    for so in stages:
        options = list(so.options)
        for opt in so.options:
            spot_vm = VMConfig(
                name=f"{opt.vm.name}.spot",
                family=opt.vm.family,
                vcpus=opt.vm.vcpus,
                memory_gb=opt.vm.memory_gb,
                price_per_hour=opt.vm.price_per_hour * discount,
                avx=opt.vm.avx,
            )
            options.append(
                ConfigOption(
                    vm=spot_vm,
                    runtime_seconds=opt.runtime_seconds,
                    price=spot_vm.cost(opt.runtime_seconds),
                )
            )
        menus.append(StageOptions(stage=so.stage, options=options))
        spot_half = options[len(options) // 2 :]
        pick = rng.choice(spot_half if rng.random() < 0.7 else options)
        plan.add(so.stage, pick.vm, pick.runtime_seconds)
    profile = random_fault_profile(rng)
    policy = random_execution_policy(rng, discount)
    seed = rng.randrange(1 << 30)
    deadline = float(
        rng.randint(
            max(1, int(plan.total_runtime * 0.8)),
            int(plan.total_runtime * 6) + 60,
        )
    )
    return plan, deadline, profile, policy, seed, menus


def random_convergence_params(
    rng: random.Random,
) -> Tuple[float, float, Optional[float]]:
    """Random (runtime, rate, checkpoint interval) for the convergence oracle.

    Bounded so ``lambda * segment <= 1.2``: above that the restart
    distribution's tail makes a 500-trial mean estimate too noisy for a
    5% tolerance; below it the standard error stays under ~2.5%.
    """
    interval = None if rng.random() < 0.3 else rng.uniform(30.0, 400.0)
    runtime = rng.uniform(100.0, 1200.0)
    segment = runtime if interval is None else min(interval, runtime)
    max_rate = 1.2 * 3600.0 / segment
    rate = rng.uniform(0.2, min(3.0, max_rate))
    return runtime, rate, interval


def random_service_case(rng: random.Random):
    """One service fuzz case: ``(requests, workers, queue_depth)``.

    Batches mix priorities, clients, and job kinds.  Most jobs are cheap
    ``sleep`` churn; at most two per batch run the real execute pipeline
    (sharing one flow seed so the characterization cache absorbs the
    cost).  Queue depth is sometimes smaller than the batch, so the
    admission-bound branch of the oracle is exercised too.
    """
    from ..service import JobRequest

    jobs = rng.randint(3, 8)
    workers = rng.randint(1, 3)
    depth = rng.randint(2, jobs + 2)
    heavy_budget = 2
    requests = []
    for _ in range(jobs):
        kind = rng.choice(("sleep", "sleep", "sleep", "execute", "plan"))
        if kind in ("execute", "plan"):
            if heavy_budget == 0:
                kind = "sleep"
            else:
                heavy_budget -= 1
        requests.append(
            JobRequest(
                kind=kind,
                design="ctrl",
                scale=0.15,
                seed=rng.randrange(1 << 16),
                flow_seed=7,
                priority=rng.randint(0, 2),
                client=rng.choice(("alice", "bob")),
                params={"steps": rng.randint(0, 3)} if kind == "sleep" else {},
            )
        )
    return requests, workers, depth


def random_fleet_case(rng: random.Random):
    """One fleet fuzz case: ``(menus, flows)`` for the fleet oracle.

    A handful of shared menus (reusing :func:`random_mckp_instance`, so
    each stays brute-force checkable) and a small flow population whose
    deadlines span the infeasible / tight / slack regimes of their menu
    — including duplicate ``(menu, deadline)`` pairs so the group-cache
    path is exercised, not just the solver.
    """
    from ..fleet import FlowSpec

    menus = {}
    spans = {}
    for m in range(rng.randint(1, 3)):
        menu_id = f"fm{m}"
        stages, _ = random_mckp_instance(rng)
        menus[menu_id] = stages
        fastest = sum(
            min(o.runtime_seconds for o in s.options) for s in stages
        )
        slowest = sum(
            max(o.runtime_seconds for o in s.options) for s in stages
        )
        spans[menu_id] = (max(1, fastest - 5), slowest + 10)
    menu_ids = sorted(menus)
    flows = []
    for i in range(rng.randint(2, 6)):
        menu_id = rng.choice(menu_ids)
        lo, hi = spans[menu_id]
        flows.append(
            FlowSpec(
                flow_id=f"ff{i}",
                menu_id=menu_id,
                deadline_seconds=float(rng.randint(lo, hi)),
            )
        )
    return menus, flows
