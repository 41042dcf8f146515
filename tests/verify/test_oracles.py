"""Property tests for the differential oracles (fixed fast seed set).

Two halves per oracle: the real implementations pass on a fixed set of
seeded random instances, and a deliberately corrupted implementation is
caught (mutation smoke checks) — an oracle that cannot catch a planted bug
is no safety net.
"""

import random

import pytest

from repro.cloud.instance import InstanceFamily, VMConfig
from repro.core.optimize import (
    ConfigOption,
    StageOptions,
    enumerate_feasible,
    selection_objective,
    solve_brute_force,
    solve_mckp_dp,
)
from repro.eda.cuts import Cut, enumerate_cuts
from repro.eda.job import EDAStage
from repro.eda.synthesis import balance
from repro.netlist.aig import lit_not
from repro.parallel.scheduler import list_schedule
from repro.cloud.events import EventKind
from repro.cloud.executor import ExecutionPolicy, PlanExecutor
from repro.cloud.faults import PROFILES, FaultProfile
from repro.verify import (
    aig_equivalence_violations,
    convergence_violations,
    cut_function_violations,
    execution_violations,
    mckp_violations,
    node_value_words,
    recipe_equivalence_violations,
    schedule_violations,
    spot_violations,
)
from repro.verify.generators import (
    random_aig,
    random_execution_case,
    random_mckp_instance,
    random_recipe,
    random_spot_params,
    random_task_graph,
)

SEEDS = range(12)


def _mckp_case(seed):
    return random_mckp_instance(random.Random(seed))


def _option(runtime, price_per_hour, name="vm"):
    vm = VMConfig(
        name=name,
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=2,
        memory_gb=8.0,
        price_per_hour=price_per_hour,
    )
    return ConfigOption(vm=vm, runtime_seconds=runtime, price=vm.cost(runtime))


class TestMCKPOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_real_solvers_pass(self, seed):
        stages, deadline = _mckp_case(seed)
        assert mckp_violations(stages, deadline) == []

    def test_catches_dropped_option(self):
        """Mutant DP that never sees the fastest option: feasibility lies."""
        stages = [
            StageOptions(
                stage=EDAStage.SYNTHESIS,
                options=[_option(100, 0.1, "slow"), _option(10, 1.0, "fast")],
            )
        ]

        def corrupted(stage_opts, deadline):
            pruned = [
                StageOptions(stage=s.stage, options=s.options[:1])
                for s in stage_opts
            ]
            return solve_mckp_dp(pruned, deadline)

        # Deadline only the dropped fast option can meet.
        violations = mckp_violations(stages, 20, solver=corrupted)
        assert any("feasibility mismatch" in v for v in violations)

    def test_catches_suboptimal_selection(self):
        """Mutant DP that picks the worst feasible option: objective lies."""
        stages = [
            StageOptions(
                stage=EDAStage.SYNTHESIS,
                options=[_option(10, 0.5, "cheap"), _option(10, 2.0, "dear")],
            )
        ]

        def corrupted(stage_opts, deadline):
            best = None
            for sel in enumerate_feasible(stage_opts, deadline):
                value = selection_objective(sel, True)
                if best is None or value < selection_objective(best, True):
                    best = sel
            return best

        violations = mckp_violations(stages, 100, solver=corrupted)
        assert any("brute-force optimum" in v for v in violations)

    def test_brute_force_matches_dp_on_larger_sweep(self):
        for seed in range(6):
            stages, deadline = _mckp_case(seed + 100)
            dp = solve_mckp_dp(stages, deadline)
            bf = solve_brute_force(stages, deadline)
            assert (dp is None) == (bf is None)
            if dp is not None:
                assert dp.objective_inverse_price == pytest.approx(
                    bf.objective_inverse_price
                )


class TestScheduleOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_real_scheduler_passes(self, seed):
        graph, workers = random_task_graph(random.Random(seed))
        assert schedule_violations(graph, workers) == []

    def _graph_and_result(self):
        graph, workers = random_task_graph(random.Random(3))
        return graph, workers, list_schedule(graph, workers)

    def test_catches_precedence_violation(self):
        graph, workers, result = self._graph_and_result()
        child = next(t for t in graph.tasks if t.deps)
        result.start_times[child.task_id] = 0.0
        result.finish_times[child.task_id] = child.work
        violations = schedule_violations(graph, workers, result=result)
        assert any("before dependency" in v for v in violations)

    def test_catches_worker_overlap(self):
        graph, workers, result = self._graph_and_result()
        # Pile every task onto worker 0 at time 0.
        for task in graph.tasks:
            result.worker_of[task.task_id] = 0
            result.start_times[task.task_id] = 0.0
            result.finish_times[task.task_id] = task.work
        violations = schedule_violations(graph, workers, result=result)
        assert any("overlap" in v for v in violations)

    def test_catches_makespan_lie(self):
        graph, workers, result = self._graph_and_result()
        result.makespan = result.makespan * 2.0
        violations = schedule_violations(graph, workers, result=result)
        assert any("max finish" in v for v in violations)

    def test_catches_missing_task(self):
        graph, workers, result = self._graph_and_result()
        tid = graph.tasks[0].task_id
        del result.start_times[tid]
        violations = schedule_violations(graph, workers, result=result)
        assert any("exactly once" in v for v in violations)


class TestAIGOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_balance_and_recipes_preserve_function(self, seed):
        rng = random.Random(seed)
        aig = random_aig(rng)
        recipe, rseed = random_recipe(rng)
        assert aig_equivalence_violations(aig, balance(aig)) == []
        assert recipe_equivalence_violations(aig, recipe, rseed) == []

    def test_catches_complemented_output(self):
        aig = random_aig(random.Random(0))
        broken = aig.copy()
        broken._outputs[0] = lit_not(broken._outputs[0])
        violations = aig_equivalence_violations(aig, broken, label="mutant")
        assert any("output 0 function changed" in v for v in violations)

    def test_catches_output_count_change(self):
        aig = random_aig(random.Random(0))
        broken = aig.copy()
        broken.add_output(broken.outputs[0])
        violations = aig_equivalence_violations(aig, broken)
        assert any("output count changed" in v for v in violations)


class TestCutOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_real_cuts_pass(self, seed):
        aig = random_aig(random.Random(seed))
        assert cut_function_violations(aig) == []

    def test_catches_flipped_table_bit(self):
        aig = random_aig(random.Random(1))
        cuts, _ = enumerate_cuts(aig, k=4, cap=6)
        tampered = False
        for node in sorted(cuts):
            nontrivial = [c for c in cuts[node] if c.size > 1]
            if nontrivial:
                cut = nontrivial[0]
                cuts[node] = [
                    Cut(leaves=cut.leaves, table=cut.table ^ 1)
                    if c is cut
                    else c
                    for c in cuts[node]
                ]
                tampered = True
                break
        assert tampered, "generator produced no nontrivial cut"
        violations = cut_function_violations(aig, cuts=cuts)
        assert any("simulation says" in v for v in violations)

    def test_node_values_match_outputs(self):
        from repro.verify import exhaustive_output_tables
        from repro.netlist.aig import lit_is_complemented, lit_node

        aig = random_aig(random.Random(2))
        values = node_value_words(aig)
        mask = (1 << (1 << aig.num_inputs)) - 1
        tables = exhaustive_output_tables(aig)
        for out_lit, table in zip(aig.outputs, tables):
            word = values[lit_node(out_lit)]
            if lit_is_complemented(out_lit):
                word ^= mask
            assert word & mask == table


class TestSpotOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_real_model_passes(self, seed):
        runtime, rate, interval = random_spot_params(random.Random(seed))
        assert spot_violations(runtime, rate, interval) == []

    def test_catches_below_nominal(self):
        def mutant(runtime, rate, interval=None):
            return runtime * 0.9

        violations = spot_violations(1000.0, 0.5, None, fn=mutant)
        assert any("below nominal" in v for v in violations)

    def test_catches_non_monotone(self):
        def mutant(runtime, rate, interval=None):
            # Decreasing in the rate: clearly wrong.
            return runtime * (2.0 - min(rate, 1.0))

        violations = spot_violations(1000.0, 0.5, None, fn=mutant)
        assert any("not monotone" in v for v in violations)

    def test_catches_closed_form_mismatch(self):
        def mutant(runtime, rate, interval=None):
            return runtime * 1.5

        violations = spot_violations(1000.0, 0.5, None, fn=mutant)
        assert any("closed form mismatch" in v for v in violations)


class TestExecutionOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_real_executor_passes(self, seed):
        plan, deadline, profile, policy, eseed, menus = random_execution_case(
            random.Random(seed)
        )
        assert (
            execution_violations(
                plan, deadline, profile, policy, eseed, stage_options=menus
            )
            == []
        )

    def _case_and_result(self, profile=None, policy=None):
        plan, deadline, _, _, _, menus = random_execution_case(random.Random(4))
        profile = profile if profile is not None else FaultProfile.none()
        policy = policy if policy is not None else ExecutionPolicy()
        result = PlanExecutor(profile, policy).execute(
            plan, deadline, seed=9, stage_options=menus
        )
        return plan, deadline, profile, policy, result

    def _audit(self, plan, deadline, profile, policy, result):
        return execution_violations(
            plan, deadline, profile, policy, seed=9, result=result
        )

    def test_catches_billing_lie(self):
        plan, deadline, profile, policy, result = self._case_and_result()
        result.total_cost *= 1.5
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("sum of billed segments" in v for v in violations)

    def test_catches_causality_violation(self):
        """Tampered trace where stage 2 starts before stage 1 commits."""
        import dataclasses

        plan, deadline, profile, policy, result = self._case_and_result()
        events = result.trace.events
        commits = [
            i for i, e in enumerate(events) if e.kind == EventKind.STAGE_COMMIT
        ]
        starts = [
            i for i, e in enumerate(events) if e.kind == EventKind.STAGE_START
        ]
        if len(starts) < 2:
            pytest.skip("case has a single stage")
        # Swap the first commit with the following start, keeping seq
        # numbers contiguous so only the causality check can fire.
        i, j = commits[0], starts[1]
        events[i], events[j] = (
            dataclasses.replace(events[j], seq=i, time=events[i].time),
            dataclasses.replace(events[i], seq=j, time=events[j].time),
        )
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("before" in v and "commits" in v for v in violations)

    def test_catches_excess_retries(self):
        plan, deadline, profile, policy, result = self._case_and_result()
        stage = plan.assignments[0].stage.value
        for extra in range(policy.retry.max_retries + 2):
            result.trace.record(
                result.total_time,
                EventKind.BACKOFF,
                stage=stage,
                attempt=extra,
                seconds=1.0,
            )
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("exceed policy" in v for v in violations)

    def test_catches_time_reversal(self):
        import dataclasses

        plan, deadline, profile, policy, result = self._case_and_result()
        events = result.trace.events
        events[1] = dataclasses.replace(events[1], time=-5.0)
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("time goes backwards" in v for v in violations)

    def test_catches_fault_free_runtime_drift(self):
        plan, deadline, profile, policy, result = self._case_and_result()
        result.total_time += 10.0
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("fault-free run took" in v for v in violations)

    def test_catches_preemption_cap_breach(self):
        policy = ExecutionPolicy(max_preemptions_per_stage=1)
        plan, deadline, profile, _, result = self._case_and_result(policy=policy)
        stage = plan.assignments[0].stage.value
        for count in (1, 2):
            result.trace.record(
                result.total_time,
                EventKind.PREEMPTION,
                stage=stage,
                lost=1.0,
                count=count,
            )
        violations = self._audit(plan, deadline, profile, policy, result)
        assert any("exceed the fallback cap" in v for v in violations)


class TestConvergenceOracle:
    @pytest.mark.parametrize(
        "runtime,rate,interval",
        [(900.0, 1.5, 120.0), (700.0, 2.0, None)],
    )
    def test_real_executor_converges(self, runtime, rate, interval):
        assert convergence_violations(runtime, rate, interval, seed=0) == []

    def test_heavy_profile_converges(self):
        heavy = PROFILES["heavy"]()
        assert convergence_violations(
            900.0,
            heavy.spot_interrupt_rate_per_hour,
            heavy.checkpoint_interval_seconds,
            trials=600,
            seed=0,
        ) == []

    def test_catches_sub_nominal_completions(self):
        def mutant(runtime, rate, interval=None, trials=500, seed=0):
            return [runtime * 0.9] * trials

        violations = convergence_violations(
            500.0, 1.0, None, trials=20, simulate=mutant
        )
        assert any("beat the nominal runtime" in v for v in violations)

    def test_catches_biased_mean(self):
        def mutant(runtime, rate, interval=None, trials=500, seed=0):
            # Ignores preemptions entirely: always the nominal runtime.
            return [runtime] * trials

        violations = convergence_violations(
            500.0, 2.0, None, trials=20, simulate=mutant
        )
        assert any("deviates from the closed form" in v for v in violations)

    def test_catches_short_sample(self):
        def mutant(runtime, rate, interval=None, trials=500, seed=0):
            return [runtime]

        violations = convergence_violations(
            500.0, 1.0, None, trials=20, simulate=mutant
        )
        assert any("simulator returned" in v for v in violations)


class TestServiceOracle:
    def test_generated_cases_pass(self):
        from repro.verify import service_violations
        from repro.verify.generators import random_service_case

        for seed in range(4):
            requests, workers, depth = random_service_case(
                random.Random(seed)
            )
            assert service_violations(requests, workers, depth) == []

    def test_over_depth_batch_passes_with_typed_rejections(self):
        from repro.service import JobRequest
        from repro.verify import service_violations

        requests = [
            JobRequest(kind="sleep", priority=i % 2, params={"steps": 1})
            for i in range(6)
        ]
        assert service_violations(requests, workers=2, depth=3) == []
