"""Cross-module differential oracles.

Each oracle compares an optimized implementation against an independent
reference and returns a list of human-readable violation messages (empty
when the invariant holds):

* :func:`mckp_violations` — the MCKP dynamic programs
  (:func:`~repro.core.optimize.solve_mckp_dp`,
  :func:`~repro.core.optimize.solve_min_cost_dp`) against the exhaustive
  :func:`~repro.core.optimize.solve_brute_force` reference, plus greedy
  feasibility/optimality sanity,
* :func:`schedule_violations` — list-scheduler output validity (precedence,
  one task per worker at a time) and the Graham makespan bounds
  ``critical_path <= makespan <= work/k + critical_path``,
* :func:`aig_equivalence_violations` — truth-table equivalence of synthesis
  transforms (exhaustive up to 10 inputs, random signatures above),
* :func:`cut_function_violations` — every enumerated cut's truth table
  matches the node function obtained by exhaustive simulation,
* :func:`spot_violations` — closed-form limit and monotonicity checks for
  the spot-market runtime model.

The checkers accept the implementation under test as an injectable
parameter, so the mutation smoke tests can verify that a deliberately
corrupted implementation *is* caught.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence

from ..cloud.events import EventKind
from ..cloud.executor import (
    ExecutionPolicy,
    ExecutionResult,
    PlanExecutor,
    simulate_spot_completion_times,
)
from ..cloud.faults import FaultProfile
from ..cloud.provisioner import DeploymentPlan
from ..cloud.spot import spot_expected_runtime
from ..core.optimize import (
    MCKPTable,
    Selection,
    StageOptions,
    prune_stage_options,
    selection_objective,
    solve_approx,
    solve_brute_force,
    solve_greedy,
    solve_mckp_dp,
    solve_min_cost_dp,
)
from ..eda.cuts import CutSet, enumerate_cuts
from ..eda.synthesis import apply_recipe
from ..eda.truthtables import var_table
from ..netlist.aig import AIG, lit_is_complemented, lit_node
from ..parallel.scheduler import ScheduleResult, list_schedule
from ..parallel.taskgraph import TaskGraph

__all__ = [
    "mckp_violations",
    "schedule_violations",
    "aig_equivalence_violations",
    "recipe_equivalence_violations",
    "cut_function_violations",
    "spot_violations",
    "execution_violations",
    "convergence_violations",
    "exhaustive_output_tables",
    "node_value_words",
    "obs_violations",
    "service_violations",
    "fleet_violations",
    "fleet_session_violations",
    "attrib_violations",
    "slo_violations",
]

#: Relative tolerance for floating-point objective comparisons.
REL_TOL = 1e-9
#: Absolute slack for schedule time comparisons.
TIME_EPS = 1e-9
#: Exhaustive simulation is used up to this many primary inputs.
EXHAUSTIVE_INPUT_LIMIT = 10


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


# ----------------------------------------------------------------------
# MCKP: DP vs brute force
# ----------------------------------------------------------------------
def _check_selection_shape(
    selection: Selection,
    stages: Sequence[StageOptions],
    capacity: int,
    label: str,
    out: List[str],
) -> None:
    expected = {s.stage for s in stages}
    got = set(selection.choices)
    if got != expected:
        out.append(f"{label}: covers stages {sorted(got)} != {sorted(expected)}")
        return
    for stage_opts in stages:
        if selection.choices[stage_opts.stage] not in stage_opts.options:
            out.append(
                f"{label}: stage {stage_opts.stage.value} option not in its menu"
            )
    if selection.total_runtime > capacity:
        out.append(
            f"{label}: total runtime {selection.total_runtime} exceeds "
            f"deadline {capacity}"
        )


def mckp_violations(
    stages: Sequence[StageOptions],
    deadline_seconds: float,
    solver: Callable[..., Optional[Selection]] = solve_mckp_dp,
    min_cost_solver: Callable[..., Optional[Selection]] = solve_min_cost_dp,
) -> List[str]:
    """Differential check of both DP objectives against brute force."""
    out: List[str] = []
    capacity = int(math.floor(deadline_seconds))
    for maximize, impl, label in (
        (True, solver, "mckp-dp"),
        (False, min_cost_solver, "min-cost-dp"),
    ):
        reference = solve_brute_force(stages, deadline_seconds, maximize)
        candidate = impl(stages, deadline_seconds)
        if (reference is None) != (candidate is None):
            out.append(
                f"{label}: feasibility mismatch (brute force "
                f"{'in' if reference is None else ''}feasible, dp "
                f"{'in' if candidate is None else ''}feasible)"
            )
            continue
        if reference is None or candidate is None:
            continue
        _check_selection_shape(candidate, stages, capacity, label, out)
        ref_obj = selection_objective(reference, maximize)
        cand_obj = selection_objective(candidate, maximize)
        if not _close(ref_obj, cand_obj):
            out.append(
                f"{label}: objective {cand_obj!r} != brute-force optimum "
                f"{ref_obj!r}"
            )
    # Greedy is a heuristic: it must agree on feasibility, stay feasible,
    # and never beat the true min-cost optimum.
    greedy = solve_greedy(stages, deadline_seconds)
    reference = solve_brute_force(stages, deadline_seconds, False)
    if (reference is None) != (greedy is None):
        out.append("greedy: feasibility mismatch vs brute force")
    elif greedy is not None and reference is not None:
        _check_selection_shape(greedy, stages, capacity, "greedy", out)
        if greedy.total_cost < reference.total_cost * (1.0 - REL_TOL) - 1e-12:
            out.append(
                f"greedy: cost {greedy.total_cost!r} beats the optimum "
                f"{reference.total_cost!r}"
            )
    return out


# ----------------------------------------------------------------------
# Scheduler: validity + Graham bounds
# ----------------------------------------------------------------------
def schedule_violations(
    graph: TaskGraph,
    workers: int,
    result: Optional[ScheduleResult] = None,
) -> List[str]:
    """Check a schedule for validity and makespan bounds.

    With ``result=None`` the schedule is produced by
    :func:`~repro.parallel.scheduler.list_schedule`; the mutation tests
    pass a tampered result instead.
    """
    out: List[str] = []
    if result is None:
        result = list_schedule(graph, workers)
    tasks = graph.tasks
    task_ids = {t.task_id for t in tasks}
    if set(result.start_times) != task_ids or set(result.finish_times) != task_ids:
        out.append("schedule: not every task was scheduled exactly once")
        return out
    by_task = {t.task_id: t for t in tasks}
    for tid, task in by_task.items():
        start = result.start_times[tid]
        finish = result.finish_times[tid]
        if start < -TIME_EPS:
            out.append(f"task {tid}: negative start time {start!r}")
        if not math.isclose(
            finish - start, task.work, rel_tol=1e-9, abs_tol=TIME_EPS
        ):
            out.append(
                f"task {tid}: duration {finish - start!r} != work {task.work!r}"
            )
        for dep in task.deps:
            if start < result.finish_times[dep] - TIME_EPS:
                out.append(
                    f"task {tid}: starts at {start!r} before dependency "
                    f"{dep} finishes at {result.finish_times[dep]!r}"
                )
    # One task per worker at a time.
    per_worker: dict = {}
    for tid, worker in result.worker_of.items():
        per_worker.setdefault(worker, []).append(tid)
    if tasks and set(result.worker_of) != task_ids:
        out.append("schedule: worker assignment missing tasks")
    for worker, tids in per_worker.items():
        if not 0 <= worker < workers:
            out.append(f"schedule: unknown worker id {worker}")
        tids.sort(key=lambda t: result.start_times[t])
        for prev, cur in zip(tids, tids[1:]):
            if result.start_times[cur] < result.finish_times[prev] - TIME_EPS:
                out.append(
                    f"worker {worker}: tasks {prev} and {cur} overlap "
                    f"({result.finish_times[prev]!r} > "
                    f"{result.start_times[cur]!r})"
                )
    # Makespan bookkeeping and Graham bounds.
    if tasks:
        true_makespan = max(result.finish_times.values())
        if not math.isclose(
            result.makespan, true_makespan, rel_tol=1e-9, abs_tol=TIME_EPS
        ):
            out.append(
                f"schedule: makespan {result.makespan!r} != max finish "
                f"{true_makespan!r}"
            )
    critical = graph.critical_path()
    lower = max(critical, graph.total_work / workers)
    if result.makespan < lower - TIME_EPS - 1e-9 * lower:
        out.append(
            f"schedule: makespan {result.makespan!r} below lower bound "
            f"{lower!r}"
        )
    upper = graph.total_work / workers + critical
    if result.makespan > upper + TIME_EPS + 1e-9 * upper:
        out.append(
            f"schedule: makespan {result.makespan!r} exceeds Graham bound "
            f"{upper!r}"
        )
    return out


# ----------------------------------------------------------------------
# AIG: truth-table equivalence
# ----------------------------------------------------------------------
def exhaustive_output_tables(aig: AIG) -> List[int]:
    """Per-output truth tables over all ``2**num_inputs`` patterns."""
    n = aig.num_inputs
    if n > EXHAUSTIVE_INPUT_LIMIT:
        raise ValueError(
            f"{n} inputs exceed the exhaustive limit {EXHAUSTIVE_INPUT_LIMIT}"
        )
    words = [var_table(j, n) for j in range(n)]
    return aig.simulate(words, width=1 << n)


def _signature_tables(aig: AIG, patterns: int, seed: int) -> List[int]:
    return aig.random_simulation_signature(patterns=patterns, seed=seed)


def aig_equivalence_violations(
    original: AIG,
    transformed: AIG,
    label: str = "transform",
    signature_patterns: int = 256,
    signature_seed: int = 0,
) -> List[str]:
    """Check that a synthesis transform preserved the logic function.

    Uses exhaustive truth tables when the input count allows (complete
    equivalence), otherwise bit-parallel random-signature comparison (a
    one-sided check: equal signatures do not prove equivalence, unequal
    signatures disprove it).
    """
    out: List[str] = []
    if original.num_inputs != transformed.num_inputs:
        out.append(
            f"{label}: input count changed "
            f"{original.num_inputs} -> {transformed.num_inputs}"
        )
        return out
    if original.num_outputs != transformed.num_outputs:
        out.append(
            f"{label}: output count changed "
            f"{original.num_outputs} -> {transformed.num_outputs}"
        )
        return out
    if original.num_inputs <= EXHAUSTIVE_INPUT_LIMIT:
        before = exhaustive_output_tables(original)
        after = exhaustive_output_tables(transformed)
        how = "exhaustive"
    else:
        before = _signature_tables(original, signature_patterns, signature_seed)
        after = _signature_tables(transformed, signature_patterns, signature_seed)
        how = f"{signature_patterns}-pattern signature"
    for idx, (b, a) in enumerate(zip(before, after)):
        if b != a:
            out.append(
                f"{label}: output {idx} function changed ({how} mismatch, "
                f"differing bits {bin(b ^ a).count('1')})"
            )
    return out


def recipe_equivalence_violations(
    aig: AIG, recipe: Sequence[str], seed: int
) -> List[str]:
    """Run a synthesis recipe and check function preservation."""
    transformed = apply_recipe(aig, recipe, seed=seed)
    return aig_equivalence_violations(
        aig, transformed, label=f"recipe {'/'.join(recipe)}@{seed}"
    )


# ----------------------------------------------------------------------
# Cuts: every cut table matches the node function
# ----------------------------------------------------------------------
def node_value_words(aig: AIG) -> List[int]:
    """Exhaustive simulation value word for *every* node (not just outputs)."""
    n = aig.num_inputs
    if n > EXHAUSTIVE_INPUT_LIMIT:
        raise ValueError(
            f"{n} inputs exceed the exhaustive limit {EXHAUSTIVE_INPUT_LIMIT}"
        )
    width = 1 << n
    mask = (1 << width) - 1
    values = [0] * aig.size
    for j, node in enumerate(aig.inputs):
        values[node] = var_table(j, n)
    for node in aig.and_nodes():
        a, b = aig.fanins(node)
        va = values[lit_node(a)] ^ (mask if lit_is_complemented(a) else 0)
        vb = values[lit_node(b)] ^ (mask if lit_is_complemented(b) else 0)
        values[node] = va & vb
    return values


def cut_function_violations(
    aig: AIG,
    k: int = 4,
    cap: int = 6,
    cuts: Optional[CutSet] = None,
) -> List[str]:
    """Check every enumerated cut's truth table against exhaustive simulation.

    For each node and each of its cuts, the node's simulated value under
    every input pattern must equal the cut table entry indexed by the
    leaves' simulated values.  ``cuts`` may be supplied pre-tampered by the
    mutation tests.
    """
    out: List[str] = []
    if cuts is None:
        cuts, _ = enumerate_cuts(aig, k=k, cap=cap)
    values = node_value_words(aig)
    width = 1 << aig.num_inputs
    for node, node_cuts in cuts.items():
        node_word = values[node]
        for cut in node_cuts:
            for p in range(width):
                leaf_index = 0
                for j, leaf in enumerate(cut.leaves):
                    leaf_index |= ((values[leaf] >> p) & 1) << j
                expected = (node_word >> p) & 1
                got = (cut.table >> leaf_index) & 1
                if expected != got:
                    out.append(
                        f"cut {cut.leaves} of node {node}: table bit "
                        f"{leaf_index} is {got}, simulation says {expected} "
                        f"(pattern {p})"
                    )
                    break  # one message per cut is enough
    return out


# ----------------------------------------------------------------------
# Executor: trace validity, determinism, billing consistency
# ----------------------------------------------------------------------
def execution_violations(
    plan: DeploymentPlan,
    deadline_seconds: float,
    profile: FaultProfile,
    policy: ExecutionPolicy,
    seed: int,
    stage_options: Optional[Sequence] = None,
    result: Optional[ExecutionResult] = None,
) -> List[str]:
    """Audit one plan execution against the robustness invariants.

    With ``result=None`` the executor runs twice from the same seed (the
    determinism check is part of the oracle); the mutation tests pass a
    tampered :class:`ExecutionResult` instead.  Checks: event causality
    (monotone time, no stage starting before its predecessor commits),
    retry and preemption counts within policy, billing consistency (final
    cost equals the sum of billed segments equals the trace's billed
    events), completion bookkeeping, and — with faults disabled — exact
    reproduction of the plan's nominal runtime and cost.
    """
    out: List[str] = []
    if result is None:
        result = PlanExecutor(profile, policy).execute(
            plan, deadline_seconds, seed=seed, stage_options=stage_options
        )
        again = PlanExecutor(profile, policy).execute(
            plan, deadline_seconds, seed=seed, stage_options=stage_options
        )
        if again.trace.events != result.trace.events:
            out.append("executor: same seed produced a different trace")
    trace = result.trace
    events = trace.events

    for prev, e in zip(events, events[1:]):
        if e.seq != prev.seq + 1:
            out.append(f"trace: seq jumps {prev.seq} -> {e.seq}")
        if e.time < prev.time - TIME_EPS:
            out.append(
                f"trace: time goes backwards at seq {e.seq} "
                f"({prev.time!r} -> {e.time!r})"
            )

    # Causality: stages are strictly serial — a stage may only start once
    # the previous one has committed.
    open_stage: Optional[str] = None
    commits: List[str] = []
    for e in events:
        if e.kind == EventKind.STAGE_START:
            if open_stage is not None:
                out.append(
                    f"trace: stage {e.stage} starts before {open_stage} commits"
                )
            open_stage = e.stage
        elif e.kind == EventKind.STAGE_COMMIT:
            if open_stage != e.stage:
                out.append(f"trace: commit of {e.stage} without an open start")
            commits.append(e.stage)
            open_stage = None

    # Policy bounds: retries and preemptions never exceed configuration.
    cap = policy.max_preemptions_per_stage
    for stage in sorted({e.stage for e in events if e.stage}):
        backoffs = trace.count(EventKind.BACKOFF, stage)
        if backoffs > policy.retry.max_retries:
            out.append(
                f"stage {stage}: {backoffs} retries exceed policy "
                f"max_retries={policy.retry.max_retries}"
            )
        failures = trace.count(EventKind.BOOT_FAILURE, stage) + trace.count(
            EventKind.API_ERROR, stage
        )
        if failures > policy.retry.max_retries + 1:
            out.append(
                f"stage {stage}: {failures} provisioning failures exceed "
                f"the retry budget"
            )
        preemptions = trace.preemptions(stage)
        if cap is not None and preemptions > cap:
            out.append(
                f"stage {stage}: {preemptions} preemptions exceed the "
                f"fallback cap {cap}"
            )

    # Billing: one source of truth, three views of it.
    segment_cost = sum(s.cost for s in result.segments)
    if not _close(result.total_cost, segment_cost):
        out.append(
            f"billing: total cost {result.total_cost!r} != sum of billed "
            f"segments {segment_cost!r}"
        )
    if not _close(result.total_cost, trace.billed_cost):
        out.append(
            f"billing: total cost {result.total_cost!r} != trace billed "
            f"cost {trace.billed_cost!r}"
        )

    # Completion bookkeeping.
    n_stages = len(plan.assignments)
    if result.completed:
        if len(commits) != n_stages:
            out.append(
                f"completed flow committed {len(commits)} of {n_stages} stages"
            )
        if trace.count(EventKind.FLOW_COMPLETE) != 1:
            out.append("completed flow lacks a flow_complete event")
    else:
        if trace.count(EventKind.FLOW_FAIL) != 1:
            out.append("failed flow lacks a flow_fail event")
        if trace.count(EventKind.STAGE_ABORT) < 1:
            out.append("failed flow lacks a stage_abort event")
    if events and abs(result.total_time - events[-1].time) > 1e-6:
        out.append(
            f"total time {result.total_time!r} != last event time "
            f"{events[-1].time!r}"
        )

    # Fault-free executions reproduce the plan exactly.
    if profile.fault_free:
        if not math.isclose(
            result.total_time, plan.total_runtime, rel_tol=1e-12, abs_tol=1e-9
        ):
            out.append(
                f"fault-free run took {result.total_time!r}, plan nominal "
                f"is {plan.total_runtime!r}"
            )
        if not _close(result.total_cost, plan.total_cost):
            out.append(
                f"fault-free run cost {result.total_cost!r}, plan cost "
                f"is {plan.total_cost!r}"
            )
        if trace.preemptions() != 0:
            out.append("fault-free run recorded preemptions")
    return out


def convergence_violations(
    runtime_seconds: float,
    interrupt_rate_per_hour: float,
    checkpoint_interval_seconds: Optional[float] = None,
    trials: int = 500,
    seed: int = 0,
    rel_tol: float = 0.05,
    simulate: Callable[..., List[float]] = simulate_spot_completion_times,
) -> List[str]:
    """Monte-Carlo executor vs the closed-form spot runtime model.

    The executor's checkpoint/restart semantics under Poisson preemptions
    must *be* the process :func:`spot_expected_runtime` takes the
    expectation of — so the mean of ``trials`` simulated completions has
    to land within ``rel_tol`` of the closed form, and no completion may
    beat the nominal runtime.
    """
    import zlib

    out: List[str] = []
    times = simulate(
        runtime_seconds,
        interrupt_rate_per_hour,
        checkpoint_interval_seconds,
        trials=trials,
        seed=seed,
    )
    if len(times) != trials:
        out.append(f"simulator returned {len(times)} of {trials} trials")
        return out
    below = sum(1 for t in times if t < runtime_seconds * (1.0 - 1e-9))
    if below:
        out.append(
            f"{below} of {trials} completions beat the nominal runtime "
            f"{runtime_seconds!r}"
        )
    expected = spot_expected_runtime(
        runtime_seconds, interrupt_rate_per_hour, checkpoint_interval_seconds
    )
    # A correct executor's estimator is unbiased but noisy (restart
    # distributions are heavy-tailed).  When the first batch is not
    # comfortably inside the tolerance band, extend the sample with
    # further seed-derived batches — deterministic, and the mean of a
    # faithful simulator tightens toward the closed form, while a biased
    # one stays out.
    mean = sum(times) / len(times)
    batches = 1
    while (
        abs(mean - expected) > 0.6 * rel_tol * expected
        and len(times) < 8 * trials
    ):
        extend_seed = zlib.crc32(f"extend:{seed}:{batches}".encode())
        times.extend(
            simulate(
                runtime_seconds,
                interrupt_rate_per_hour,
                checkpoint_interval_seconds,
                trials=trials,
                seed=extend_seed,
            )
        )
        batches += 1
        mean = sum(times) / len(times)
    if abs(mean - expected) > rel_tol * expected:
        out.append(
            f"mean simulated completion {mean!r} deviates from the closed "
            f"form {expected!r} by {abs(mean - expected) / expected:.2%} "
            f"(> {rel_tol:.0%} over {len(times)} trials)"
        )
    return out


# ----------------------------------------------------------------------
# Spot market: closed-form limits and monotonicity
# ----------------------------------------------------------------------
def spot_violations(
    runtime_seconds: float,
    interrupt_rate_per_hour: float,
    checkpoint_interval_seconds: Optional[float] = None,
    fn: Callable[..., float] = spot_expected_runtime,
) -> List[str]:
    """Property checks for the expected-runtime model.

    Invariants: the expectation is at least the nominal runtime, matches
    the closed form ``(e^{lam T} - 1)/lam`` without checkpointing, tends to
    ``T`` as the rate tends to zero, is monotone in the interrupt rate, and
    checkpointing never increases it.
    """
    out: List[str] = []
    T, rate, interval = (
        runtime_seconds,
        interrupt_rate_per_hour,
        checkpoint_interval_seconds,
    )
    expected = fn(T, rate, interval)
    if expected < T * (1.0 - 1e-9) - 1e-9:
        out.append(f"E[T]={expected!r} below nominal runtime {T!r}")
    if T == 0 and expected != 0.0:
        out.append(f"zero-runtime job has nonzero expectation {expected!r}")
    if rate == 0 and not math.isclose(expected, T, rel_tol=1e-12):
        out.append(f"rate=0 expectation {expected!r} != nominal {T!r}")
    if interval is None and rate > 0 and T > 0:
        lam = rate / 3600.0
        closed = math.expm1(lam * T) / lam
        if not math.isclose(expected, closed, rel_tol=1e-9):
            out.append(
                f"closed form mismatch: E[T]={expected!r} vs "
                f"(e^(lam T)-1)/lam={closed!r}"
            )
    # Limit: rate -> 0 recovers the nominal runtime.
    near_zero = fn(T, 1e-9, interval)
    if not math.isclose(near_zero, T, rel_tol=1e-5, abs_tol=1e-6):
        out.append(f"rate->0 limit {near_zero!r} != nominal {T!r}")
    # Monotone in the interrupt rate.
    higher = fn(T, rate * 1.5 + 0.01, interval)
    if higher < expected * (1.0 - 1e-9) - 1e-9:
        out.append(
            f"not monotone in rate: E at higher rate {higher!r} < {expected!r}"
        )
    # Checkpointing never increases the expectation.
    if interval is not None:
        bare = fn(T, rate)
        if expected > bare * (1.0 + 1e-9) + 1e-9:
            out.append(
                f"checkpointing increased E[T]: {expected!r} > {bare!r}"
            )
    return out


# ----------------------------------------------------------------------
# Observability: obs telemetry vs the executor's own trace
# ----------------------------------------------------------------------
def obs_violations(
    plan: DeploymentPlan,
    deadline_seconds: float,
    profile: FaultProfile,
    policy: ExecutionPolicy,
    seed: int,
    stage_options: Optional[Sequence] = None,
) -> List[str]:
    """Cross-check ``repro.obs`` telemetry against the execution trace.

    Runs one seeded execution under a fresh deterministic tracer and a
    fresh metric registry and asserts the two independent recording
    paths agree *exactly*:

    * the ``executor.billed_seconds`` / ``executor.billed_cost`` counters
      equal the trace's billed-event totals (same floats, same order, so
      ``==`` — not approximate),
    * the number of ``preemption`` span instants equals the trace's
      preemption count (same for fallbacks),
    * the recorded spans form a well-nested tree with one span per
      committed stage.
    """
    from ..obs import MetricsRegistry, Tracer, scoped
    from ..obs.spans import well_nested_violations

    out: List[str] = []
    tracer = Tracer(deterministic=True)
    registry = MetricsRegistry()
    with scoped(tracer=tracer, metrics=registry):
        result = PlanExecutor(profile, policy).execute(
            plan, deadline_seconds, seed=seed, stage_options=stage_options
        )
    trace = result.trace
    snap = registry.snapshot()

    billed_seconds = snap.counters.get("executor.billed_seconds", 0.0)
    if billed_seconds != trace.billed_seconds:
        out.append(
            f"obs: billed-seconds counter {billed_seconds!r} != trace "
            f"billed total {trace.billed_seconds!r}"
        )
    billed_cost = snap.counters.get("executor.billed_cost", 0.0)
    if billed_cost != trace.billed_cost:
        out.append(
            f"obs: billed-cost counter {billed_cost!r} != trace billed "
            f"cost {trace.billed_cost!r}"
        )

    instants = [e for s in tracer.spans for e in s.events]
    for name, expected in (
        (EventKind.PREEMPTION.value, trace.preemptions()),
        (EventKind.FALLBACK.value, trace.count(EventKind.FALLBACK)),
        (EventKind.BACKOFF.value, trace.count(EventKind.BACKOFF)),
    ):
        got = sum(1 for e in instants if e.name == name)
        if got != expected:
            out.append(
                f"obs: {got} {name!r} span instants != {expected} trace events"
            )

    out.extend(f"obs: {v}" for v in well_nested_violations(tracer.spans))

    stage_spans = [s for s in tracer.spans if s.name.startswith("stage.")]
    committed = sum(1 for r in result.stage_records if r.committed)
    if len(stage_spans) != committed + (0 if result.completed else 1):
        # An aborted stage still opens a span before failing.
        aborted = 0 if result.completed else 1
        out.append(
            f"obs: {len(stage_spans)} stage spans != {committed} committed "
            f"stages + {aborted} aborted"
        )
    return out


# ----------------------------------------------------------------------
# Service layer: multi-job billing + deterministic scheduling
# ----------------------------------------------------------------------
def service_violations(requests: Sequence, workers: int, depth: int) -> List[str]:
    """Audit one seeded service session against its own invariants.

    Extends the single-run obs billing oracle to *multi-job* sessions:

    * **admission bound** — with whole-batch admission (every submit
      lands before the first worker step) and no rate limiter, exactly
      ``min(len(requests), depth)`` jobs are admitted and every
      rejection is a typed ``queue_full``;
    * **slot accounting** — after drain, every acquired worker slot was
      released and no worker is active (the no-leak invariant);
    * **per-job billing** — for every executed job, the
      ``executor.billed_seconds`` / ``executor.billed_cost`` counters in
      the job's *own* scoped registry equal the job result's trace
      totals exactly (``==``, not approximately): two independent
      recording paths, per job, under concurrency;
    * **replay determinism** — a second session from the same requests
      produces the identical completion order and byte-identical
      session log;
    * **priority order** — with one worker, completion order is exactly
      ``sorted by (-priority, admission seq)``.
    """
    from ..service import ServiceConfig, run_session, session_log

    out: List[str] = []
    config = ServiceConfig(workers=workers, queue_depth=depth)
    first = run_session(requests, config)
    service = first.service

    expected_admits = min(len(requests), depth)
    if first.accepted != expected_admits:
        out.append(
            f"service: {first.accepted} admitted != expected "
            f"{expected_admits} (batch {len(requests)}, depth {depth})"
        )
    for outcome in first.outcomes:
        if not outcome.get("accepted"):
            code = outcome.get("error", {}).get("code")
            if code != "queue_full":
                out.append(
                    f"service: rejection code {code!r}, expected 'queue_full'"
                )

    pool = service.pool
    if pool.active != 0:
        out.append(f"service: {pool.active} workers still active after drain")
    if pool.slots_acquired != pool.slots_released:
        out.append(
            f"service: slot leak — {pool.slots_acquired} acquired vs "
            f"{pool.slots_released} released"
        )
    non_terminal = [
        job.job_id for job in service.jobs.values() if not job.terminal
    ]
    if non_terminal:
        out.append(f"service: non-terminal jobs after drain: {non_terminal}")

    for job in service.jobs.values():
        counters = job.metrics.get("counters", {})
        billed_seconds = counters.get("executor.billed_seconds", 0.0)
        billed_cost = counters.get("executor.billed_cost", 0.0)
        result = job.result or {}
        if result.get("kind") == "pipeline":
            result = result.get("execution") or {}
        if result.get("feasible") is False:
            result = {}
        trace_seconds = result.get("billed_seconds", 0.0)
        trace_cost = result.get("billed_cost", 0.0)
        if billed_seconds != trace_seconds:
            out.append(
                f"service: {job.job_id} billed-seconds counter "
                f"{billed_seconds!r} != trace total {trace_seconds!r}"
            )
        if billed_cost != trace_cost:
            out.append(
                f"service: {job.job_id} billed-cost counter "
                f"{billed_cost!r} != trace total {trace_cost!r}"
            )

    second = run_session(requests, config)
    if second.completion_order != first.completion_order:
        out.append(
            f"service: completion order not deterministic — "
            f"{first.completion_order} then {second.completion_order}"
        )
    if session_log(second.service) != session_log(service):
        out.append("service: session log not byte-stable across replays")

    if workers == 1:
        admitted = [
            job for job in service.jobs.values() if job.worker is not None
        ]
        expected_order = [
            job.job_id
            for job in sorted(
                admitted, key=lambda j: (-j.request.priority, j.seq)
            )
        ]
        ran_order = [
            job_id for job_id in service.terminal_order
            if service.jobs[job_id].worker is not None
        ]
        if ran_order != expected_order:
            out.append(
                f"service: 1-worker completion order {ran_order} != "
                f"priority/FIFO order {expected_order}"
            )
    return out


# ----------------------------------------------------------------------
# Fleet planner: table reuse, pruning, certified approximation
# ----------------------------------------------------------------------
def _choice_map(selection: Selection):
    return {
        stage.value: (opt.vm.name, opt.runtime_seconds)
        for stage, opt in selection.choices.items()
    }


def _dump_body(plan) -> str:
    """A plan dump without its header of per-call work counters."""
    return plan.dump().split("\n", 1)[1]


def fleet_violations(menus, flows, seed: int = 0) -> List[str]:
    """Audit every fleet amortization against fresh exact solves.

    * **dominance pruning** — for every ``(menu, deadline)`` a flow
      prices, the DP on the pruned menu agrees with the DP on the raw
      menu: same feasibility, and both the inverse-price and the
      min-cost objectives match within :data:`REL_TOL` (alternate
      optimal selections may differ; optima may not);
    * **table reuse** — one :class:`~repro.core.optimize.MCKPTable`
      built at a menu's *largest* deadline answers every smaller
      deadline with the *identical* selection a fresh
      :func:`~repro.core.optimize.solve_mckp_dp` call returns (exact
      choice-by-choice identity, not just objective equality);
    * **certified approximation** — :func:`~repro.core.optimize.solve_approx`
      agrees with the DP on feasibility, returns a menu-valid selection
      within deadline, never beats the true optimum, and its
      ``upper_bound`` / ``certified_gap`` dominate the true optimum /
      true gap (the bound is *certified*: it may be loose, never wrong);
    * **planner consistency** — a :class:`~repro.fleet.FleetPlanner` in
      exact mode reproduces the fresh pruned-menu DP selection for every
      group (so batching, grouping, and cross-call cell caching change
      nothing), a second ``plan()`` over the same flows emits a
      byte-identical dump, and approx-mode group gaps dominate their
      true gaps;
    * **session grouping** — a short exact-mode
      :class:`~repro.fleet.ContinuousSession` seeded with ``seed``
      passes :func:`fleet_session_violations`.
    """
    from ..fleet import FleetPlanner, group_flows

    out: List[str] = []
    deadlines = {}
    for spec in flows:
        deadlines.setdefault(spec.menu_id, set()).add(
            int(spec.deadline_seconds)
        )

    pruned_menus = {}
    for menu_id in sorted(deadlines):
        stages = menus[menu_id]
        pruned, _ = prune_stage_options(stages)
        pruned_menus[menu_id] = pruned
        dls = sorted(deadlines[menu_id])
        table = MCKPTable(pruned, dls[-1])
        for deadline in dls:
            raw_sol = solve_mckp_dp(stages, deadline)
            pruned_sol = solve_mckp_dp(pruned, deadline)
            if (raw_sol is None) != (pruned_sol is None):
                out.append(
                    f"fleet: {menu_id}@{deadline} pruning changed "
                    f"feasibility (raw {raw_sol is not None}, "
                    f"pruned {pruned_sol is not None})"
                )
                continue
            if raw_sol is not None:
                if not _close(
                    raw_sol.objective_inverse_price,
                    pruned_sol.objective_inverse_price,
                ):
                    out.append(
                        f"fleet: {menu_id}@{deadline} pruning changed the "
                        f"DP optimum: raw "
                        f"{raw_sol.objective_inverse_price!r} vs pruned "
                        f"{pruned_sol.objective_inverse_price!r}"
                    )
                raw_cost = solve_min_cost_dp(stages, deadline)
                pruned_cost = solve_min_cost_dp(pruned, deadline)
                if raw_cost is not None and pruned_cost is not None:
                    if not _close(
                        raw_cost.total_cost, pruned_cost.total_cost
                    ):
                        out.append(
                            f"fleet: {menu_id}@{deadline} pruning changed "
                            f"the min-cost optimum: "
                            f"{raw_cost.total_cost!r} vs "
                            f"{pruned_cost.total_cost!r}"
                        )

            reused = table.query(deadline)
            if (reused is None) != (pruned_sol is None):
                out.append(
                    f"fleet: {menu_id}@{deadline} table reuse changed "
                    f"feasibility"
                )
            elif reused is not None and _choice_map(reused) != _choice_map(
                pruned_sol
            ):
                out.append(
                    f"fleet: {menu_id}@{deadline} table built at "
                    f"{dls[-1]} answers {_choice_map(reused)} but a fresh "
                    f"solve picks {_choice_map(pruned_sol)}"
                )

            approx = solve_approx(pruned, deadline)
            if (approx is None) != (pruned_sol is None):
                out.append(
                    f"fleet: {menu_id}@{deadline} approx feasibility "
                    f"{approx is not None} != exact {pruned_sol is not None}"
                )
            elif approx is not None:
                _check_selection_shape(
                    approx.selection,
                    pruned,
                    deadline,
                    f"fleet approx {menu_id}@{deadline}",
                    out,
                )
                opt = pruned_sol.objective_inverse_price
                # Gap comparisons difference two near-equal sums, so the
                # slack must scale with the optimum, not with the gap.
                tol = REL_TOL * max(1.0, abs(opt))
                if approx.objective > opt + tol:
                    out.append(
                        f"fleet: {menu_id}@{deadline} approx objective "
                        f"{approx.objective!r} beats the DP optimum {opt!r}"
                    )
                if approx.upper_bound < opt - tol:
                    out.append(
                        f"fleet: {menu_id}@{deadline} certified upper "
                        f"bound {approx.upper_bound!r} below the DP "
                        f"optimum {opt!r}"
                    )
                true_gap = opt - approx.objective
                if approx.certified_gap < true_gap - tol:
                    out.append(
                        f"fleet: {menu_id}@{deadline} certified gap "
                        f"{approx.certified_gap!r} below the true gap "
                        f"{true_gap!r}"
                    )

    planner = FleetPlanner(mode="exact")
    for menu_id in sorted(menus):
        planner.register_menu(menu_id, menus[menu_id])
    plan = planner.plan(group_flows(flows))
    if plan.stats.flows != len(list(flows)):
        out.append(
            f"fleet: planner saw {plan.stats.flows} flows, expected "
            f"{len(list(flows))}"
        )
    for group in plan.groups:
        fresh = solve_mckp_dp(pruned_menus[group.menu_id], group.capacity)
        if group.feasible != (fresh is not None):
            out.append(
                f"fleet: planner group {group.menu_id}@{group.capacity} "
                f"feasible={group.feasible} but fresh solve "
                f"{'found' if fresh else 'found no'} selection"
            )
        elif fresh is not None and _choice_map(group.selection) != _choice_map(
            fresh
        ):
            out.append(
                f"fleet: planner group {group.menu_id}@{group.capacity} "
                f"selection {_choice_map(group.selection)} != fresh "
                f"{_choice_map(fresh)}"
            )
    # The dump header carries per-call work counters (tables built this
    # call), which legitimately drop to zero on a cached re-plan; the
    # *plan* — every group line — must be byte-identical.
    replan = planner.plan(group_flows(flows))
    if (
        _dump_body(replan) != _dump_body(plan)
        or replan.total_cost != plan.total_cost
    ):
        out.append("fleet: second plan() over cached cells changed the plan")

    approx_planner = FleetPlanner(mode="approx")
    for menu_id in sorted(menus):
        approx_planner.register_menu(menu_id, menus[menu_id])
    approx_plan = approx_planner.plan(group_flows(flows))
    for group in approx_plan.groups:
        fresh = solve_mckp_dp(pruned_menus[group.menu_id], group.capacity)
        if group.feasible != (fresh is not None):
            out.append(
                f"fleet: approx planner group "
                f"{group.menu_id}@{group.capacity} feasibility "
                f"{group.feasible} != exact {fresh is not None}"
            )
        elif fresh is not None:
            opt = fresh.objective_inverse_price
            true_gap = opt - group.objective
            if group.certified_gap < true_gap - REL_TOL * max(1.0, abs(opt)):
                out.append(
                    f"fleet: approx planner group "
                    f"{group.menu_id}@{group.capacity} certified gap "
                    f"{group.certified_gap!r} below true gap {true_gap!r}"
                )
    out += fleet_session_violations(menus, flows, seed)
    return out


def fleet_session_violations(
    menus,
    flows,
    seed: int,
    mode: str = "exact",
    ticks: int = 3,
    execute_per_tick: int = 2,
) -> List[str]:
    """Audit a :class:`~repro.fleet.ContinuousSession`'s kept grouping.

    The session groups its queue once and then edits the groups as
    flows execute.  At the start and after every step its
    ``pending_groups`` must equal ``group_flows(pending)``: the same
    cells, each with the same flow ids in the same order.  Each tick's
    plan must dump (less the work-counter header) byte-equal to a fresh
    planner's plan of ``group_flows`` over the queue the tick planned,
    against the tick's live menus.  The defaults run a few flows per
    tick, so cells empty and drop out while the check runs.
    """
    from ..fleet import (
        ContinuousSession,
        FleetPlanner,
        SpotMarketFeed,
        group_flows,
    )

    session = ContinuousSession(
        menus,
        flows,
        feed=SpotMarketFeed(seed=seed),
        planner=FleetPlanner(mode=mode),
        seed=seed,
        execute_per_tick=execute_per_tick,
    )
    out: List[str] = []

    def check_groups(when: str) -> None:
        expected = group_flows(session.pending)
        if session.pending_groups != expected:
            cells = sorted(set(session.pending_groups) | set(expected))
            wrong = [
                cell
                for cell in cells
                if session.pending_groups.get(cell) != expected.get(cell)
            ]
            out.append(
                f"fleet session ({mode}) {when}: kept groups differ from "
                f"group_flows(pending) on cells {wrong[:3]}"
            )

    check_groups("at start")
    for tick in range(ticks):
        queue = list(session.pending)
        session.step()
        check_groups(f"after tick {tick}")
        fresh = FleetPlanner(mode=mode)
        for menu_id in sorted(session.live_menus):
            fresh.register_menu(menu_id, session.live_menus[menu_id])
        if _dump_body(session.report.final_plan) != _dump_body(
            fresh.plan(group_flows(queue))
        ):
            out.append(
                f"fleet session ({mode}) tick {tick}: plan differs from a "
                f"fresh plan of the same queue"
            )
    return out


# ----------------------------------------------------------------------
# Attribution: exact bucket decomposition of end-to-end job latency
# ----------------------------------------------------------------------
def attrib_violations(requests: Sequence, workers: int, depth: int) -> List[str]:
    """Audit critical-path attribution for one seeded service session.

    * **exactness** — for every terminal job the bucket sum equals the
      end-to-end duration **bit-for-bit** (``==`` on floats, never a
      tolerance), every bucket is non-negative, and jobs cancelled in
      the queue attribute nothing past ``queue_wait``
      (:func:`repro.obs.attrib.attribution_violations`);
    * **coverage** — one attribution per terminal job, in terminal
      order, each carrying the job's trace id;
    * **record stitching** — ``records()`` embeds the same attribution
      document in each job record and is idempotent (calling it twice
      yields byte-identical documents, labeled histograms included);
    * **replay determinism** — a second same-request session produces
      the byte-identical attribution list.
    """
    import json

    from ..obs.attrib import attribute_session, attribution_violations
    from ..service import ServiceConfig, run_session

    out: List[str] = []
    config = ServiceConfig(workers=workers, queue_depth=depth)
    first = run_session(requests, config)
    service = first.service

    out.extend(f"attrib: {v}" for v in attribution_violations(service))

    attribs = attribute_session(service)
    for a in attribs:
        job = service.jobs[a.job_id]
        if a.trace_id != job.trace_id:
            out.append(
                f"attrib: {a.job_id} trace id {a.trace_id!r} != job's "
                f"{job.trace_id!r}"
            )

    stamp = "2026-01-01T00:00:00Z"
    docs1 = [r.to_dict() for r in service.records(stamp)]
    docs2 = [r.to_dict() for r in service.records(stamp)]
    if json.dumps(docs1, sort_keys=True) != json.dumps(docs2, sort_keys=True):
        out.append("attrib: records() is not idempotent")
    by_job = {a.job_id: a for a in attribs}
    for doc in docs1[:-1]:
        job_id = doc["labels"].get("job_id")
        embedded = doc["labels"].get("attrib")
        expected = by_job[job_id].to_dict() if job_id in by_job else None
        if embedded != expected:
            out.append(
                f"attrib: record for {job_id} embeds {embedded!r}, "
                f"expected {expected!r}"
            )
    session_hists = docs1[-1]["metrics"].get("histograms", {})
    latency = session_hists.get("service.latency_ticks")
    if attribs and (
        latency is None or latency.get("count") != len(attribs)
    ):
        out.append(
            f"attrib: session latency histogram count "
            f"{None if latency is None else latency.get('count')} != "
            f"{len(attribs)} attributed jobs"
        )

    second = run_session(requests, config)
    replay = [a.to_dict() for a in attribute_session(second.service)]
    if json.dumps(replay, sort_keys=True) != json.dumps(
        [a.to_dict() for a in attribs], sort_keys=True
    ):
        out.append("attrib: attribution not byte-stable across replays")
    return out


# ----------------------------------------------------------------------
# SLO engine: burn/violation equivalence and byte-stable evaluation
# ----------------------------------------------------------------------
def slo_violations(requests: Sequence, workers: int, depth: int) -> List[str]:
    """Audit the SLO engine over one seeded service session's records.

    * **burn equivalence** — for every objective with data,
      ``burn > 1`` holds *iff* the objective failed (the two fields can
      never disagree), and no-data objectives pass vacuously;
    * **window partition** — with window size ``w`` the per-objective
      burn series has exactly ``ceil(records / w)`` entries, and the
      whole-set burn matches an independent recomputation from the
      report's own value/target fields;
    * **byte stability** — evaluating twice over the same records, and
      over a second same-seed session, yields byte-identical report
      JSON and render lines.
    """
    import json
    import math

    from ..obs.slo import evaluate_slo, parse_slo_spec
    from ..service import ServiceConfig, run_session

    out: List[str] = []
    config = ServiceConfig(workers=workers, queue_depth=depth)
    first = run_session(requests, config)
    stamp = "2026-01-01T00:00:00Z"
    records = first.service.records(stamp)

    spec = parse_slo_spec(
        {
            "schema": "repro-slo/1",
            "name": "fuzz-slo",
            "kind": "service",
            "objectives": [
                {
                    "name": "deadline-hit-rate",
                    "type": "ratio",
                    "label": "met_deadline",
                    "objective": 0.5,
                },
                {
                    "name": "p99-latency",
                    "type": "latency",
                    "metric": "service.latency_ticks",
                    "percentile": 99.0,
                    "threshold": 40.0,
                },
                {
                    "name": "cost-budget",
                    "type": "cost",
                    "metric": "executor.billed_cost",
                    "budget": 0.001,
                },
            ],
        }
    )
    window = max(1, workers)
    report = evaluate_slo(spec, records, window=window)

    for result in report.results:
        if result.no_data:
            if not result.passed or result.burn is not None:
                out.append(
                    f"slo: no-data objective {result.name} must pass "
                    f"vacuously with burn=None"
                )
            continue
        if result.burn is None or result.value is None:
            out.append(f"slo: objective {result.name} has data but no burn")
            continue
        if (result.burn > 1.0) == result.passed:
            out.append(
                f"slo: objective {result.name} burn {result.burn!r} "
                f"disagrees with passed={result.passed}"
            )
        if result.type == "ratio":
            expected = (1.0 - result.value) / (1.0 - result.target)
        else:
            expected = result.value / result.target
        if result.burn != expected:
            out.append(
                f"slo: objective {result.name} burn {result.burn!r} != "
                f"recomputed {expected!r}"
            )
        expected_windows = math.ceil(report.records / window)
        if len(result.windows) != expected_windows:
            out.append(
                f"slo: objective {result.name} has {len(result.windows)} "
                f"burn windows != ceil({report.records}/{window}) = "
                f"{expected_windows}"
            )
    if report.violated != any(not r.passed for r in report.results):
        out.append("slo: report verdict disagrees with objective verdicts")

    again = evaluate_slo(spec, records, window=window)
    if again.to_json() != report.to_json() or again.render() != report.render():
        out.append("slo: same-records evaluation is not byte-stable")

    second = run_session(requests, config)
    replay = evaluate_slo(
        spec, second.service.records(stamp), window=window
    )
    if replay.to_json() != report.to_json():
        out.append("slo: same-seed session evaluation is not byte-stable")
    return out
