"""The benchmark's four workloads: characterize, predict, serve, re-plan.

Each workload function takes the workload seed, the measuring time in
seconds, the trace flag and a size object (full size by default; the
tests pass toy sizes) and returns an :class:`Outcome`.

* Untraced, a workload loops its operation until ``seconds`` have passed
  and reports the end-to-end metrics: median operation latency,
  throughput, and the median time of at least three set-ups.
* Traced, it does a fixed amount of work twice, plain and under a
  :class:`~harness.Probe`, so work counts repeat exactly and the traced
  run's overhead is measured against the plain one.

Every layer is reached through public functions only; the probe wraps
them from outside and nothing in ``src/`` changes.
"""

from __future__ import annotations

import asyncio
import math
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

from harness import Probe, median, repeated_setup, tail, timed
from repro import obs
from repro.cloud.executor import PlanExecutor
from repro.cloud.faults import FaultProfile
from repro.core.characterize import (
    CharacterizationReport,
    StageCharacterization,
    characterize,
)
from repro.core.optimize import build_stage_options, solve_brute_force, solve_mckp_dp
from repro.core.predict import DatasetSpec, build_datasets, train_predictors
from repro.eda import cuts as cuts_module
from repro.eda import synthesis as synthesis_module
from repro.eda.flow import FlowRunner
from repro.eda.job import EDAStage
from repro.fleet import ContinuousSession, FleetPlanner, synthetic_fleet
from repro.netlist import benchmarks
from repro.service import runners as runners_module
from repro.service.api import EDAService, ServiceConfig, run_session
from repro.service.errors import ServiceError
from repro.service.jobs import JobRequest
from repro.service.runners import PipelineRunner

VCPU_GRID = (1, 2, 4, 8)
# ``repro.core`` re-exports the function ``characterize`` under the
# submodule's name, so the module is fetched from ``sys.modules``.
characterize_module = sys.modules["repro.core.characterize"]
predict_module = sys.modules["repro.core.predict"]


@dataclass
class Outcome:
    """What one workload run measured and produced."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    #: The outputs the committed reference digest covers.
    reference: object
    #: Violated correctness checks; empty when the outputs are right.
    problems: List[str] = field(default_factory=list)


def loop_until(op: Callable[[int], object], seconds: float, minimum: int = 1):
    """Call ``op(i)`` until ``seconds`` have passed and at least ``minimum``
    calls ran; returns ``(results, per-call seconds)``."""
    results: list = []
    times: List[float] = []
    start = time.perf_counter()
    while len(times) < minimum or time.perf_counter() - start < seconds:
        result, took = timed(op, len(times))
        results.append(result)
        times.append(took)
    return results, times


def end_to_end(latencies: Sequence[float], work: float, setup_s: float) -> dict:
    """The shared end-to-end metrics; ``latencies`` in seconds, ``work``
    in units done per second of measured operation time."""
    return {
        "latency_p50_ms": median(latencies) * 1e3,
        "throughput_per_s": work,
        "setup_s": setup_s,
    }


def layer_metrics(probe: Probe) -> dict:
    """Self time of every span and busy timer as ``<name>.busy_s``, plus
    every work count."""
    out = {f"{name}.busy_s": s for name, s in probe.self_seconds().items()}
    out.update({f"{name}.busy_s": s for name, s in probe.busy.items()})
    out.update(probe.counts)
    return out


def _harvest(probe: Probe, *pairs: Tuple[str, str]):
    """``on_result`` hook adding ``JobResult.metrics[key]`` to counters."""

    def on_result(job) -> None:
        for key, name in pairs:
            probe.counts[name] += job.metrics[key]

    return on_result


def probe_eda(probe: Probe, runner: FlowRunner) -> None:
    """Spans on the flow and its four engines, counts from their results."""
    probe.span(runner, "run", "eda.flow")
    probe.span(runner.synthesis, "run", "eda.synthesis")
    probe.span(
        runner.placement, "run", "eda.placement",
        _harvest(probe, ("iterations", "eda.placement.iterations")),
    )
    probe.span(
        runner.routing, "run", "eda.routing",
        _harvest(
            probe,
            ("expansions", "eda.routing.expansions"),
            ("ripups", "eda.routing.ripups"),
            ("iterations", "eda.routing.iterations"),
        ),
    )
    probe.span(runner.sta, "run", "eda.sta", _harvest(probe, ("arcs", "eda.sta.arcs")))

    def cut_stats(result) -> None:
        _, stats = result
        probe.counts["eda.cuts.merges"] += stats.merges
        probe.counts["eda.cuts.kept"] += stats.kept

    probe.span(synthesis_module, "enumerate_cuts", "eda.cuts", cut_stats)
    # Half a million calls per paper-scale flow: a counter, not a span.
    probe.count(cuts_module, "expand_table", "eda.truthtables.expand_calls")


def probe_executor(probe: Probe, owner) -> None:
    """Span and preemption/re-plan counts around ``owner.execute``."""

    def on_result(outcome) -> None:
        probe.counts["cloud.executor.calls"] += 1
        probe.counts["cloud.executor.preemptions"] += sum(
            r.preemptions for r in outcome.stage_records
        )
        probe.counts["cloud.executor.replans"] += int(outcome.replanned)

    probe.span(owner, "execute", "cloud.executor", on_result)


# -- characterize_paper -------------------------------------------------------


#: The perf simulator's sampling rate in the paper's Figure-2 run.
SAMPLE_RATE = 4


@dataclass(frozen=True)
class CharacterizeSize:
    design: str = "sparc_core"
    scale: float = 1.0
    vcpu_levels: Tuple[int, ...] = VCPU_GRID


def _merge_reports(reports: Sequence[CharacterizationReport]) -> CharacterizationReport:
    """One report over every vCPU level of several one-level reports."""
    merged = CharacterizationReport(design=reports[0].design)
    for report in reports:
        for stage, char in report.stages.items():
            into = merged.stages.setdefault(stage, StageCharacterization(stage=stage))
            into.counters.update(char.counters)
            into.runtimes.update(char.runtimes)
    return merged


def _characterization_doc(report: CharacterizationReport) -> dict:
    """Every counter field, modelled runtime and family recommendation."""
    return {
        "stages": {
            stage.value: {
                "counters": {v: asdict(c) for v, c in char.counters.items()},
                "runtimes": dict(char.runtimes),
            }
            for stage, char in report.stages.items()
        },
        "families": {
            stage.value: family.value
            for stage, family in report.recommended_families().items()
        },
    }


def characterize_paper(
    seed: int, seconds: float, trace: bool, size: CharacterizeSize = CharacterizeSize()
) -> Outcome:
    levels = size.vcpu_levels

    def setup():
        return benchmarks.build(size.design, size.scale), FlowRunner(seed=seed)

    (aig, runner), setup_s = repeated_setup(setup)

    def run_level(i: int) -> CharacterizationReport:
        level = levels[i % len(levels)]
        return characterize(
            aig, vcpu_levels=(level,), sample_rate=SAMPLE_RATE, runner=runner
        )

    if trace:
        return _characterize_traced(size, aig, runner, run_level)

    reports, times = loop_until(run_level, seconds, minimum=len(levels))
    grid = _merge_reports(reports[: len(levels)])
    problems = []
    for i, report in enumerate(reports[len(levels):], start=len(levels)):
        first = reports[i % len(levels)]
        if _characterization_doc(report) != _characterization_doc(first):
            problems.append(f"flow {i} differs from the same vCPU level's first flow")
    stage_runs = len(times) * len(EDAStage.ordered())
    metrics = end_to_end(times, stage_runs / sum(times), setup_s)
    return Outcome(
        attempted=stage_runs,
        failed=0,
        metrics=metrics,
        reference=_characterization_doc(grid),
        problems=problems,
    )


def _characterize_traced(size, aig, runner, run_level) -> Outcome:
    _, bare_s = timed(runner.run, aig)
    _, plain_s = timed(run_level, 0)
    with obs.scoped(tracer=obs.Tracer(enabled=True)):
        _, global_tracer_s = timed(run_level, 0)
    _, build_s = timed(benchmarks.build, size.design, size.scale)

    with Probe() as probe:
        probe_eda(probe, runner)

        def time_instrument(instrument) -> None:
            probe.time(instrument, "mem", "perf.mem")
            probe.time(instrument, "branch", "perf.branch")

        probe.on_return(characterize_module, "make_instrument", time_instrument)
        traced = [timed(run_level, i) for i in range(len(size.vcpu_levels))]

    grid = _merge_reports([report for report, _ in traced])
    metrics = layer_metrics(probe)
    for field_name in ("mem_accesses", "branches", "instructions"):
        metrics[f"perf.{field_name}"] = sum(
            getattr(c, field_name)
            for char in grid.stages.values()
            for c in char.counters.values()
        )
    metrics["perf.overhead_s"] = plain_s - bare_s
    metrics["obs.tracer_overhead_s"] = global_tracer_s - plain_s
    metrics["netlist.build_s"] = build_s
    metrics["bench.trace_overhead_frac"] = traced[0][1] / plain_s - 1.0
    return Outcome(
        attempted=len(traced) * len(EDAStage.ordered()),
        failed=0,
        metrics=metrics,
        reference=_characterization_doc(grid),
    )


# -- predict_train ------------------------------------------------------------


#: One variant per dataset design keeps labelling the dataset to seconds.
VARIANTS_PER_DESIGN = 1
#: Cycles a run times at least, so its median is not one of a few samples.
MIN_CYCLES = 10


@dataclass(frozen=True)
class PredictSize:
    designs: Tuple[str, ...] = tuple(benchmarks.dataset_names())
    scale: float = 0.2
    epochs: int = 4


def plan(runtimes: Dict[EDAStage, Dict[int, float]], tracer):
    """MCKP plan under a deadline halfway between the all-fastest and the
    all-slowest configuration (always feasible, rarely trivial)."""
    with tracer.span("optimize.options"):
        options = build_stage_options(runtimes)
    deadline = (
        sum(s.fastest.runtime_seconds for s in options)
        + sum(max(o.runtime_seconds for o in s.options) for s in options)
    ) / 2
    with tracer.span("optimize.solve"):
        selection = solve_mckp_dp(options, deadline)
    return options, deadline, selection


def _choices(selection) -> Dict[str, str]:
    return {stage.value: opt.label for stage, opt in selection.choices.items()}


def label(seed: int, size: PredictSize, runner: FlowRunner):
    """The labelled dataset: one uninstrumented flow per netlist."""
    spec = DatasetSpec(
        designs=size.designs,
        variants_per_design=VARIANTS_PER_DESIGN,
        scale=size.scale,
        seed=seed,
    )
    return build_datasets(spec, runner=runner)


def _modelled_plans(datasets):
    """Every netlist's modelled runtimes and the MCKP choices on them,
    each plan checked against ``solve_brute_force``; returns
    ``(reference doc, problems)``."""
    quiet = obs.Tracer(enabled=False)
    stages = EDAStage.ordered()
    problems = []
    plans = []
    for i, synth in enumerate(datasets[EDAStage.SYNTHESIS]):
        modelled = {
            s: dict(zip(VCPU_GRID, datasets[s][i].runtimes.tolist())) for s in stages
        }
        options, deadline, selection = plan(modelled, quiet)
        best = solve_brute_force(options, deadline)
        # The solvers sum 1/p in different orders: compare to rounding.
        if selection is None or best is None or not math.isclose(
            selection.objective_inverse_price, best.objective_inverse_price, rel_tol=1e-12
        ):
            problems.append(f"{synth.design}_v{synth.variant}: DP plan is not optimal")
            continue
        plans.append(_choices(selection))
    doc = {
        "runtimes": {
            s.value: [[x.design, x.variant, x.runtimes.tolist()] for x in datasets[s]]
            for s in stages
        },
        "plans": plans,
    }
    return doc, problems


def _train_and_plan(datasets, seed: int, size: PredictSize, tracer):
    """Train the GCNs, then predict and plan every dataset netlist;
    returns ``(suite, predicted choices, problems)``."""
    with tracer.span("predict.train"):
        suite = train_predictors(datasets, epochs=size.epochs, seed=seed)
    choices = []
    problems = []
    for i, synth in enumerate(datasets[EDAStage.SYNTHESIS]):
        netlist_graph = datasets[EDAStage.PLACEMENT][i].graph
        with tracer.span("gnn.predict"):
            predicted = suite.predict_stage_runtimes(synth.graph, netlist_graph)
        selection = plan(predicted, tracer)[2]
        if selection is None:
            problems.append(f"{synth.design}_v{synth.variant}: predicted plan infeasible")
            continue
        choices.append(_choices(selection))
    return suite, choices, problems


def predict_train(
    seed: int, seconds: float, trace: bool, size: PredictSize = PredictSize()
) -> Outcome:
    def setup():
        runner = FlowRunner(seed=seed)
        return runner, label(seed, size, runner)

    # Labelling the dataset is the set-up a user waits for before training.
    (runner, datasets), setup_s = repeated_setup(setup)
    doc, problems = _modelled_plans(datasets)
    netlists = len(datasets[EDAStage.SYNTHESIS])
    quiet = obs.Tracer(enabled=False)

    if trace:
        (_, plain_choices, _), plain_s = timed(_train_and_plan, datasets, seed, size, quiet)
        with Probe() as probe:
            probe_eda(probe, runner)
            probe.span(predict_module, "restructure", "eda.restructure")
            probe.span(predict_module, "aig_to_graph", "netlist.graph_build")
            probe.span(predict_module, "netlist_to_star_graph", "netlist.graph_build")
            probe.span(predict_module, "train", "gnn.train")
            probe.span(predict_module, "evaluate", "gnn.evaluate")
            with probe.tracer.span("predict.dataset"):
                traced_datasets, label_s = timed(label, seed, size, runner)
            (suite, choices, more), train_s = timed(
                _train_and_plan, traced_datasets, seed, size, probe.tracer
            )
        traced_doc, _ = _modelled_plans(traced_datasets)
        if traced_doc != doc or choices != plain_choices:
            problems.append("traced cycle differs from the plain cycle")
        metrics = layer_metrics(probe)
        metrics["predict.dataset_s"] = label_s
        metrics["predict.train_s"] = sum(probe.durations("predict.train"))
        metrics["gnn.epoch_ms"] = (
            1e3 * metrics["gnn.train.busy_s"] / (size.epochs * len(suite.predictors))
        )
        metrics["gnn.predict_ms"] = median(probe.durations("gnn.predict")) * 1e3
        metrics["gnn.error_pct"] = 100.0 * suite.mean_error()
        metrics["optimize.solve_ms"] = median(probe.durations("optimize.solve")) * 1e3
        metrics["optimize.solve_calls"] = len(probe.durations("optimize.solve"))
        metrics["bench.trace_overhead_frac"] = (label_s + train_s) / (setup_s + plain_s) - 1.0
        return Outcome(2 * netlists, 0, metrics, doc, problems + more)

    def cycle(i: int):
        suite, choices, more = _train_and_plan(datasets, seed, size, quiet)
        return (choices, suite.mean_error()), more  # the suite goes

    cycles, times = loop_until(cycle, seconds, minimum=MIN_CYCLES)
    first, _ = cycles[0]
    for i, (outputs, more) in enumerate(cycles):
        problems += more
        if outputs != first:
            problems.append(f"cycle {i} differs from cycle 0")
    predicted = netlists * len(times)
    metrics = end_to_end(times, predicted / sum(times), setup_s)
    # A flow per labelled netlist plus a prediction per netlist and cycle.
    return Outcome(netlists + predicted, 0, metrics, doc, problems)


# -- service_mix --------------------------------------------------------------


@dataclass(frozen=True)
class ServiceSize:
    designs: Tuple[Tuple[str, float], ...] = (
        ("ctrl", 1.0),
        ("i2c", 1.0),
        ("cavlc", 1.0),
        ("router", 1.0),
        ("mem_ctrl", 0.5),
    )
    batch_jobs: int = 500


KINDS = ("plan", "execute", "pipeline")
KIND_WEIGHTS = (4, 4, 2)
CLIENTS = ("client-a", "client-b", "client-c")
PRIORITIES = (0, 1)
CONFIG = ServiceConfig(workers=2, queue_depth=4096, deterministic=False)
#: The open loop's arrival rate, in jobs per second.
RATE_PER_S = 150.0
#: Share of the measuring time spent on saturation batches; the rest is
#: the open loop.
SATURATION_SHARE = 0.3
#: The open-loop generator yields instead of sleeping this close to a due time.
SPIN_S = 0.002


def job_mix(seed: int, tag: str, count: int, size: ServiceSize) -> List[JobRequest]:
    """Seeded plan/execute/pipeline requests over the warm designs."""
    rng = random.Random(f"service_mix:{seed}:{tag}")
    out = []
    for _ in range(count):
        design, scale = rng.choice(size.designs)
        out.append(
            JobRequest(
                kind=rng.choices(KINDS, KIND_WEIGHTS)[0],
                design=design,
                scale=scale,
                seed=rng.randrange(1 << 16),
                flow_seed=rng.randrange(2),
                priority=rng.choice(PRIORITIES),
                client=rng.choice(CLIENTS),
            )
        )
    return out


def warm_runner(size: ServiceSize) -> PipelineRunner:
    """A runner whose flow cache holds every design at flow seeds 0 and 1."""
    runner = PipelineRunner()
    warm = [
        JobRequest(kind="flow", design=d, scale=s, flow_seed=fs)
        for d, s in size.designs
        for fs in (0, 1)
    ]
    session = run_session(warm, ServiceConfig(queue_depth=len(warm)), runner=runner)
    if session.rejected or not session.service.all_terminal:
        raise RuntimeError("flow cache warm-up did not complete")
    return runner


def saturate(service: EDAService, requests: Sequence[JobRequest]) -> float:
    """Submit every request at once, drain, and return the seconds taken."""

    async def drive() -> float:
        service.start()
        start = time.perf_counter()
        for request in requests:
            service.submit(request)
        await service.drain()
        return time.perf_counter() - start

    return asyncio.run(drive())


def open_loop(service: EDAService, requests: Sequence[JobRequest], rate: float):
    """Submit request ``i`` when it is due, ``i / rate`` seconds after the
    start, whatever the backlog; then drain.

    Returns ``(due, late)``: each admitted job's due time on the service
    clock, and how late the generator submitted each request.  Latency
    counted from the due time includes the wait a stalled loop imposes
    on later requests.  The generator sleeps until just before a request
    is due and yields to the loop for the rest, so timer and wake-up
    slack on an idle host do not read as service latency.
    """
    clock = service.clock
    due: Dict[str, float] = {}
    late: List[float] = []

    async def drive() -> None:
        service.start()
        start = clock()
        for i, request in enumerate(requests):
            when = start + i / rate
            if when - clock() > SPIN_S:
                await asyncio.sleep(when - clock() - SPIN_S)
            while clock() < when:
                await asyncio.sleep(0)
            late.append(clock() - when)
            try:
                doc = service.submit(request)
            except ServiceError:
                continue
            due[doc["job_id"]] = when
        await service.drain()

    asyncio.run(drive())
    return due, late


def edge(job, state: str) -> float:
    return next(t for s, t in job.history if s == state)


def open_latencies(service: EDAService, due: Dict[str, float]) -> List[float]:
    """Seconds from each finished job's due time to its ``done`` edge."""
    return [
        edge(service.jobs[j], "done") - when
        for j, when in due.items()
        if service.jobs[j].state.value == "done"
    ]


def job_docs(service: EDAService) -> List[list]:
    """Per-job result documents and billed counters, in submission order."""
    out = []
    for job in sorted(service.jobs.values(), key=lambda j: j.seq):
        counters = job.metrics.get("counters", {})
        out.append(
            [
                job.state.value,
                job.result,
                counters.get("executor.billed_seconds", 0.0),
                counters.get("executor.billed_cost", 0.0),
            ]
        )
    return out


def failed_jobs(service: EDAService, submitted: int) -> int:
    """Submitted requests that were rejected or did not end ``done``."""
    return submitted - sum(j.state.value == "done" for j in service.jobs.values())


def _service_problems(service: EDAService, submitted: int) -> List[str]:
    problems = []
    if len(service.jobs) != submitted:
        problems.append(f"{submitted - len(service.jobs)} of {submitted} jobs rejected")
    for job in service.jobs.values():
        if job.state.value != "done":
            problems.append(f"{job.job_id} ended {job.state.value}: {job.error}")
            continue
        result = job.result
        planned = result["plan"] if result["kind"] == "pipeline" else result
        if result["kind"] in ("plan", "pipeline") and not (
            planned["feasible"]
            and planned["total_runtime_seconds"] <= planned["deadline_seconds"]
        ):
            problems.append(f"{job.job_id}: plan misses its deadline")
    return problems


def service_mix(
    seed: int, seconds: float, trace: bool, size: ServiceSize = ServiceSize()
) -> Outcome:
    runner, setup_s = repeated_setup(lambda: warm_runner(size))
    batch = job_mix(seed, "saturation", size.batch_jobs, size)
    open_count = max(1, round(RATE_PER_S * seconds * (1 - SATURATION_SHARE)))
    open_jobs = job_mix(seed, "open", open_count, size)

    if trace:
        plain_s = saturate(EDAService(CONFIG, runner=runner), batch)
        with Probe() as probe:
            probe.span(runners_module, "solve_mckp_dp", "optimize.solve")
            probe.span(runners_module, "build_stage_options", "optimize.options")
            probe_executor(probe, PlanExecutor)
            probe.count(runners_module, "FlowRunner", "service.flow_builds")
            services = []
            for _ in range(2):
                service = EDAService(CONFIG, runner=runner)
                probe.span(service, "runner", "service.runner")
                probe.span(service, "submit", "service.submit")
                services.append(service)
            traced_s = saturate(services[0], batch)
            due, late = open_loop(services[1], open_jobs, RATE_PER_S)
        problems = _service_problems(services[0], len(batch))
        problems += _service_problems(services[1], len(open_jobs))
        done = [j for s in services for j in s.jobs.values() if j.state.value == "done"]
        open_done = [j for j in services[1].jobs.values() if j.state.value == "done"]
        latencies = open_latencies(services[1], due)
        waits = [edge(j, "running") - edge(j, "queued") for j in open_done]
        runs = [edge(j, "done") - edge(j, "running") for j in open_done]
        run_total = sum(edge(j, "done") - edge(j, "running") for j in done)
        metrics = layer_metrics(probe)
        metrics.update(
            {
                "service.latency_tail_ms": tail(latencies) * 1e3,
                "service.submit_us": median(probe.durations("service.submit")) * 1e6,
                "service.queue_wait_p50_ms": median(waits) * 1e3,
                "service.queue_wait_p99_ms": _p99(waits) * 1e3,
                "service.run_p50_ms": median(runs) * 1e3,
                "service.overhead_us_per_job": 1e6
                * (run_total - sum(probe.durations("service.runner")))
                / len(done),
                "service.generator_late_p99_ms": _p99(late) * 1e3,
                "service.admitted": sum(s.admission.admitted for s in services),
                "service.rejected": sum(
                    sum(s.admission.rejected.values()) for s in services
                ),
                "service.spans_retained": len(services[1].tracer.spans),
                "optimize.solve_calls": len(probe.durations("optimize.solve")),
                "bench.trace_overhead_frac": traced_s / plain_s - 1.0,
            }
        )
        failed = failed_jobs(services[0], len(batch)) + failed_jobs(
            services[1], len(open_jobs)
        )
        reference = job_docs(services[0])
        return Outcome(len(batch) + len(open_jobs), failed, metrics, reference, problems)

    # Each batch is checked and dropped, so memory stays one batch's.
    docs: List[list] = []
    problems: List[str] = []
    failed = 0

    def one_batch(i: int) -> float:
        nonlocal failed
        service = EDAService(CONFIG, runner=runner)
        took = saturate(service, batch)
        problems.extend(_service_problems(service, len(batch)))
        failed += failed_jobs(service, len(batch))
        docs.append(job_docs(service))
        if docs[-1] != docs[0]:
            problems.append(f"saturation batch {i} differs from batch 0")
        docs[1:] = []
        return took

    batch_s, _ = loop_until(one_batch, seconds * SATURATION_SHARE)
    open_service = EDAService(CONFIG, runner=runner)
    due, _ = open_loop(open_service, open_jobs, RATE_PER_S)
    latencies = open_latencies(open_service, due)
    problems += _service_problems(open_service, len(open_jobs))
    failed += failed_jobs(open_service, len(open_jobs))
    attempted = len(batch) * len(batch_s) + len(open_jobs)
    capacity = median([len(batch) / s for s in batch_s])
    metrics = end_to_end(latencies, capacity, setup_s)
    return Outcome(attempted, failed, metrics, docs[0], problems)


def _p99(values: Sequence[float]) -> float:
    return statistics.quantiles(values, n=100)[98] if len(values) > 1 else values[0]


# -- fleet_replan -------------------------------------------------------------


@dataclass(frozen=True)
class FleetSize:
    flows: int = 100_000
    menus: int = 400
    deadline_buckets: int = 12
    execute_per_tick: int = 300
    #: Ticks the reference digest covers; every run does at least these.
    checked_ticks: int = 10
    #: Solved cells of the last tick checked against a fresh DP solve.
    spot_checks: int = 20


def _fleet_session(seed: int, size: FleetSize) -> ContinuousSession:
    menus, specs = synthetic_fleet(
        seed, flows=size.flows, menus=size.menus, deadline_buckets=size.deadline_buckets
    )
    return ContinuousSession(
        menus,
        specs,
        planner=FleetPlanner("exact"),
        profile=FaultProfile.storm(),
        execute_per_tick=size.execute_per_tick,
        seed=seed,
    )


def _tick_problems(session: ContinuousSession, size: FleetSize) -> List[str]:
    """Every pending flow re-planned each tick, at most the batch executed."""
    problems = []
    for t in session.report.ticks:
        pending = max(0, size.flows - t.tick * size.execute_per_tick)
        if t.replanned_flows != pending or t.feasible_flows > pending:
            problems.append(f"tick {t.tick}: planned {t.replanned_flows} of {pending} flows")
        if len(t.executed) > size.execute_per_tick:
            problems.append(f"tick {t.tick}: executed {len(t.executed)} flows")
    return problems


def _spot_check(session: ContinuousSession, size: FleetSize) -> List[str]:
    """Evenly sampled cells of the last plan against fresh DP solves."""
    groups = sorted(session.report.final_plan.groups, key=lambda g: (g.menu_id, g.capacity))
    step = max(1, len(groups) // size.spot_checks)
    problems = []
    for group in groups[::step]:
        fresh = solve_mckp_dp(session.planner.menu(group.menu_id), group.capacity)
        expected = None if fresh is None else fresh.total_cost
        actual = group.total_cost if group.feasible else None
        if expected != actual:
            problems.append(f"cell {group.menu_id}@{group.capacity}: {actual} != {expected}")
    return problems


def fleet_replan(
    seed: int, seconds: float, trace: bool, size: FleetSize = FleetSize()
) -> Outcome:
    session, setup_s = repeated_setup(lambda: _fleet_session(seed, size))

    if trace:
        plain = [timed(session.step)[1] for _ in range(size.checked_ticks)]
        traced_session = _fleet_session(seed, size)
        with Probe() as probe:

            def plan_stats(fleet_plan) -> None:
                for name in ("tables_built", "table_queries", "group_hits", "flows"):
                    probe.counts[f"fleet.{name}"] += getattr(fleet_plan.stats, name)

            probe.span(traced_session.planner, "plan", "fleet.plan", plan_stats)
            probe.span(traced_session.planner, "register_menu", "fleet.register")
            probe.span(traced_session.feed, "reprice_stage_options", "fleet.reprice")
            probe_executor(probe, traced_session.executor)
            traced = [timed(traced_session.step)[1] for _ in range(size.checked_ticks)]
        problems = _tick_problems(traced_session, size) + _spot_check(traced_session, size)
        if traced_session.report.dump() != session.report.dump():
            problems.append("traced session differs from the plain session")
        metrics = layer_metrics(probe)
        flows = metrics.pop("fleet.flows")
        metrics["fleet.cell_hit_frac"] = metrics["fleet.group_hits"] / flows
        metrics["fleet.plan_p50_ms"] = median(probe.durations("fleet.plan")) * 1e3
        metrics["fleet.invalidated"] = sum(t.invalidated for t in traced_session.report.ticks)
        metrics["bench.trace_overhead_frac"] = median(traced) / median(plain) - 1.0
        return Outcome(size.checked_ticks, 0, metrics, session.report.dump(), problems)

    reference = None

    def tick(i: int):
        nonlocal reference
        report = session.step()
        if i + 1 == size.checked_ticks:
            reference = session.report.dump()
        return report

    reports, times = loop_until(tick, seconds, minimum=size.checked_ticks)
    problems = _tick_problems(session, size) + _spot_check(session, size)
    work = sum(r.replanned_flows for r in reports) / sum(times)
    return Outcome(len(times), 0, end_to_end(times, work, setup_s), reference, problems)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "characterize_paper": characterize_paper,
    "predict_train": predict_train,
    "service_mix": service_mix,
    "fleet_replan": fleet_replan,
}

SIZES = {
    "characterize_paper": CharacterizeSize,
    "predict_train": PredictSize,
    "service_mix": ServiceSize,
    "fleet_replan": FleetSize,
}
