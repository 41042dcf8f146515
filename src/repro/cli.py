"""Command-line interface: ``python -m repro <command>``.

Exposes the paper's workflow as terminal commands:

* ``repro characterize`` — Problem 1: run the four applications on a
  design across VM sizes and print the Figure 2 panels.
* ``repro flow``         — run the 4-stage flow on a design and print
  per-stage runtimes/QoR.
* ``repro optimize``     — Problem 3: price a characterization and pick
  VM configurations under a deadline (Table I rows).
* ``repro predict``      — Problem 2: build the dataset, train the GCN
  predictors, report accuracy, optionally save the models.
* ``repro benchmarks``   — list the designs shipped with the package.
* ``repro verify``       — differential verification: fuzz the MCKP DP,
  the list scheduler, the AIG transforms, the spot model, and the plan
  executor against brute-force / closed-form oracles; exits non-zero on
  any violation.
* ``repro execute``      — optimize a deployment, then *run* the plan on
  the fault-injecting executor (spot preemptions, boot failures, retry
  with backoff, on-demand fallback, mid-flight re-planning) and print
  the replayable execution trace.
* ``repro trace``        — run a workload (flow or plan execution) under
  the observability tracer; print the hierarchical span tree, metrics
  and the per-frame *self-time* table, and export the trace (JSON or
  Chrome ``chrome://tracing`` format) or folded stacks (flamegraph
  input).
* ``repro report``       — regression dashboard over the run store:
  terminal sparklines, MAD outlier warnings, deterministic-metric drift
  checks (non-zero exit on drift), optional self-contained HTML.
* ``repro slo``          — evaluate a declarative ``repro-slo/1`` spec
  (deadline hit rate, percentile latency, cost budgets) over the run
  store; exit 1 when any error budget is burned, with a byte-stable
  evaluation document for CI to diff.
* ``repro serve``        — boot the in-process EDA-flow service, drive a
  seeded mixed-priority job batch through admission control and the
  worker pool, print the byte-stable per-job completion log, and
  persist per-job records to the telemetry store.
* ``repro submit``       — one-shot request against a fresh service
  instance; prints the structured job (or typed error) document as
  JSON, mirroring what a network client of the service would receive.
* ``repro fleet``        — fleet-scale capacity planning: batch-plan a
  seeded synthetic fleet (exact DP with table reuse, or the certified
  greedy approximation), optionally drive spot-market ticks with
  mid-flight re-planning, print amortization stats and throughput, and
  write a byte-stable plan dump (CI plans twice and ``cmp``'s).

Each command prints through :mod:`repro.core.report`, so outputs have the
same rows/series as the paper's tables and figures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from .cloud.faults import PROFILES as FAULT_PROFILES
from .cloud.instance import InstanceFamily, VMConfig
from .cloud.provisioner import DeploymentPlan
from .core.characterize import characterize
from .core.experiments import run_table1_figure6
from .core.optimize import build_stage_options, solve_mckp_dp
from .core.report import render_figure2, render_table1
from .eda import EDAStage, FlowRunner
from .netlist import benchmarks

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Characterizing and Optimizing EDA Flows for the Cloud "
        "(DATE 2021) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_char = sub.add_parser(
        "characterize", help="run the Figure 2 characterization on a design"
    )
    p_char.add_argument("--design", default="sparc_core", help="benchmark name")
    p_char.add_argument("--scale", type=float, default=1.0, help="design scale")
    p_char.add_argument(
        "--sample-rate", type=int, default=4, help="PMU sampling stride"
    )
    p_char.add_argument(
        "--vcpus",
        type=int,
        nargs="+",
        default=[1, 2, 4, 8],
        help="VM sizes to emulate",
    )

    p_flow = sub.add_parser("flow", help="run the 4-stage flow on a design")
    p_flow.add_argument("--design", default="fpu")
    p_flow.add_argument("--scale", type=float, default=1.0)
    p_flow.add_argument(
        "--recipe",
        nargs="*",
        default=None,
        help="synthesis passes (default: balance rewrite balance refactor balance)",
    )
    p_flow.add_argument(
        "--verilog-out", default=None, help="write the mapped netlist here"
    )

    p_opt = sub.add_parser(
        "optimize", help="characterize then optimize deployment under deadlines"
    )
    p_opt.add_argument("--design", default="sparc_core")
    p_opt.add_argument("--scale", type=float, default=1.0)
    p_opt.add_argument("--sample-rate", type=int, default=4)
    p_opt.add_argument(
        "--deadlines",
        type=float,
        nargs="+",
        default=None,
        help="total-runtime constraints in seconds (default: Table I's five)",
    )

    p_pred = sub.add_parser(
        "predict", help="build the dataset and train the GCN runtime predictors"
    )
    p_pred.add_argument("--variants", type=int, default=4, help="netlists per design")
    p_pred.add_argument("--epochs", type=int, default=60)
    p_pred.add_argument("--lr", type=float, default=1e-3)
    p_pred.add_argument("--dataset-scale", type=float, default=0.45)
    p_pred.add_argument(
        "--save", default=None, help="save trained models to this .npz file"
    )

    sub.add_parser("benchmarks", help="list the shipped benchmark designs")

    p_ver = sub.add_parser(
        "verify",
        help="fuzz the solvers against brute-force/closed-form oracles",
    )
    p_ver.add_argument(
        "--trials", type=int, default=200, help="fuzz trials per oracle"
    )
    p_ver.add_argument(
        "--seed", type=int, default=0, help="base seed (same seed = same report)"
    )
    p_ver.add_argument(
        "--oracle",
        action="append",
        default=None,
        metavar="NAME",
        help="run only this oracle (repeatable; default: all)",
    )
    p_ver.add_argument(
        "--replay-seed",
        type=int,
        default=None,
        help="replay one trial from a printed seed (requires one --oracle)",
    )
    p_ver.add_argument(
        "--list", action="store_true", help="list the registered oracles"
    )
    p_ver.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="where failing trials write flight-recorder dumps "
        "(default: $REPRO_CRASH_DIR or benchmarks/runs/crashes)",
    )
    p_ver.add_argument(
        "--corpus", default=None, metavar="FILE",
        help="replay every recorded (oracle, seed) entry in this corpus "
        "file instead of fuzzing; non-zero exit if any regresses",
    )
    p_ver.add_argument(
        "--record-corpus", default=None, metavar="FILE",
        help="append failing trials' (oracle, seed) pairs to this replay "
        "corpus (tests/verify/corpus.txt replays in tier-1)",
    )

    p_exec = sub.add_parser(
        "execute",
        help="optimize a deployment plan, then run it with fault injection",
    )
    p_exec.add_argument("--design", default="sparc_core")
    p_exec.add_argument("--scale", type=float, default=1.0)
    p_exec.add_argument("--sample-rate", type=int, default=4)
    p_exec.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="total-runtime constraint in seconds (default: midpoint of the "
        "fastest/slowest plans)",
    )
    p_exec.add_argument("--seed", type=int, default=0, help="execution seed")
    p_exec.add_argument(
        "--profile",
        choices=sorted(FAULT_PROFILES),
        default="calm",
        help="fault profile to inject (default: calm)",
    )
    p_exec.add_argument(
        "--spot",
        action="store_true",
        help="let the optimizer mix in spot instances (enables preemptions)",
    )
    p_exec.add_argument(
        "--discount", type=float, default=0.3, help="spot price fraction"
    )
    p_exec.add_argument(
        "--max-preemptions",
        type=int,
        default=3,
        help="spot preemptions per stage before on-demand fallback",
    )
    p_exec.add_argument(
        "--trace", action="store_true", help="print the full event trace"
    )

    p_trace = sub.add_parser(
        "trace",
        help="run a workload under the tracer and print the span tree",
    )
    p_trace.add_argument(
        "--workload",
        choices=["flow", "execute"],
        default="flow",
        help="what to trace (default: flow)",
    )
    p_trace.add_argument("--design", default="ctrl")
    p_trace.add_argument("--scale", type=float, default=0.5)
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.add_argument(
        "--profile",
        choices=sorted(FAULT_PROFILES),
        default="calm",
        help="fault profile for --workload execute",
    )
    p_trace.add_argument(
        "--deterministic",
        action="store_true",
        help="tick clock + counter IDs: byte-stable trace output",
    )
    p_trace.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the repro-trace/1 JSON document here",
    )
    p_trace.add_argument(
        "--chrome", default=None, metavar="FILE",
        help="write a chrome://tracing trace-event file here",
    )
    p_trace.add_argument(
        "--folded", default=None, metavar="FILE",
        help="write Brendan-Gregg collapsed/folded stacks here",
    )

    p_report = sub.add_parser(
        "report",
        help="regression dashboard over the run store (sparklines, MAD "
        "outliers, deterministic-drift checks, optional HTML)",
    )
    p_report.add_argument(
        "--store", default=None, metavar="FILE",
        help="telemetry store to read (default: benchmarks/runs/runs.jsonl)",
    )
    p_report.add_argument(
        "--window", type=int, default=8,
        help="trailing-window size for the MAD outlier check (default: 8)",
    )
    p_report.add_argument(
        "--metric", action="append", default=None, metavar="SUBSTR",
        help="only report metrics containing this substring (repeatable)",
    )
    p_report.add_argument(
        "--html", default=None, metavar="FILE",
        help="also write a self-contained HTML dashboard here",
    )
    p_report.add_argument(
        "--kind", action="append", default=None, metavar="KIND",
        help="only report runs of this kind; matches exactly or by "
        "dotted prefix, e.g. 'service' also selects service.job "
        "(repeatable; default: all kinds)",
    )

    p_slo = sub.add_parser(
        "slo",
        help="evaluate a declarative SLO spec over the run store "
        "(deadline hit rate, percentile latency, cost budgets); exits 1 "
        "when any objective's error budget is burned",
    )
    p_slo.add_argument(
        "--spec", required=True, metavar="FILE",
        help="repro-slo/1 JSON spec to evaluate",
    )
    p_slo.add_argument(
        "--store", default=None, metavar="FILE",
        help="telemetry store to read (default: benchmarks/runs/runs.jsonl)",
    )
    p_slo.add_argument(
        "--rev", default=None,
        help="only evaluate records of this revision (default: all)",
    )
    p_slo.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="error-budget burn per window of N records "
        "(default: 0 = whole-set burn only)",
    )
    p_slo.add_argument(
        "--dump", default=None, metavar="FILE",
        help="write the full evaluation document as JSON (timestamp-free: "
        "same records, same bytes — CI cmp's two same-seed runs)",
    )
    p_slo.add_argument(
        "--openmetrics", default=None, metavar="FILE",
        help="write the evaluated records' merged metrics as OpenMetrics "
        "text (labeled series, cumulative histogram buckets, # EOF)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="boot the EDA-flow service and drive a seeded job batch "
        "through it (deterministic: same seed, same completion log)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--jobs", type=int, default=20, help="batch size")
    p_serve.add_argument("--workers", type=int, default=2)
    p_serve.add_argument("--queue-depth", type=int, default=64)
    p_serve.add_argument(
        "--priorities", type=int, nargs="+", default=[0, 1],
        help="priority levels mixed into the batch (default: 0 1)",
    )
    p_serve.add_argument(
        "--kinds", nargs="+", default=["execute", "flow", "plan"],
        help="job kinds mixed into the batch",
    )
    p_serve.add_argument("--design", default="ctrl")
    p_serve.add_argument("--scale", type=float, default=0.2)
    p_serve.add_argument(
        "--rate-capacity", type=float, default=None, metavar="TOKENS",
        help="per-client token-bucket burst size (default: no rate limit)",
    )
    p_serve.add_argument(
        "--rate-refill", type=float, default=1.0, metavar="PER_SEC",
        help="token refill rate on the service clock (default: 1.0)",
    )
    p_serve.add_argument(
        "--log", default=None, metavar="FILE",
        help="also write the byte-stable completion log here (CI diffs "
        "two same-seed runs of this file)",
    )
    p_serve.add_argument(
        "--crash-dir", default=None, metavar="DIR",
        help="write per-job flight-recorder dumps here on unexpected "
        "job failures",
    )
    p_serve.add_argument(
        "--store", default=None, metavar="FILE",
        help="telemetry store to append per-job records to "
        "(default: benchmarks/runs/runs.jsonl)",
    )
    p_serve.add_argument(
        "--no-store", action="store_true",
        help="do not persist job records to the telemetry store",
    )
    p_serve.add_argument(
        "--timestamp", default=None, metavar="ISO8601",
        help="UTC timestamp stamped on persisted records (default: now)",
    )
    p_serve.add_argument(
        "--rev", default=None, help="revision label (default: git short rev)"
    )

    p_submit = sub.add_parser(
        "submit",
        help="submit one job to a fresh service instance and print the "
        "structured response document as JSON",
    )
    p_submit.add_argument(
        "--kind", default="execute",
        help="job kind: flow, plan, execute, pipeline, sleep, fleet",
    )
    p_submit.add_argument("--design", default="ctrl")
    p_submit.add_argument("--scale", type=float, default=0.3)
    p_submit.add_argument("--seed", type=int, default=0)
    p_submit.add_argument("--flow-seed", type=int, default=0)
    p_submit.add_argument("--priority", type=int, default=0)
    p_submit.add_argument("--client", default="cli")
    p_submit.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-job timeout on the service clock (cooperative)",
    )
    p_submit.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="MCKP deadline for plan/execute/pipeline kinds",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="batch-plan a seeded synthetic fleet (table-reuse DP or "
        "certified approximation), optionally under spot-market ticks",
    )
    p_fleet.add_argument("--seed", type=int, default=0)
    p_fleet.add_argument(
        "--flows", type=int, default=10000, help="fleet size (default: 10000)"
    )
    p_fleet.add_argument(
        "--menus", type=int, default=16,
        help="distinct shared stage menus (default: 16)",
    )
    p_fleet.add_argument(
        "--deadline-buckets", type=int, default=8,
        help="deadline SLA tiers per menu (default: 8)",
    )
    p_fleet.add_argument(
        "--mode", choices=["exact", "approx"], default="exact",
        help="exact DP with table reuse, or the certified-gap greedy "
        "approximation (default: exact)",
    )
    p_fleet.add_argument(
        "--no-prune", action="store_true",
        help="disable dominance pruning of stage options",
    )
    p_fleet.add_argument(
        "--ticks", type=int, default=0, metavar="N",
        help="drive N spot-market ticks with re-planning between them "
        "(default: 0 = a single static plan)",
    )
    p_fleet.add_argument(
        "--execute-per-tick", type=int, default=0, metavar="N",
        help="with --ticks: run N pending flows per tick through the "
        "fault-injecting executor",
    )
    p_fleet.add_argument(
        "--dump", default=None, metavar="FILE",
        help="write the byte-stable plan (or session) dump here — the "
        "same seed always produces identical bytes (CI cmp's two runs)",
    )
    p_fleet.add_argument(
        "--min-throughput", type=float, default=None, metavar="FLOWS_PER_S",
        help="exit non-zero when planning throughput falls below this",
    )
    return parser


def _cmd_characterize(args) -> int:
    report = characterize(
        args.design,
        scale=args.scale,
        vcpu_levels=tuple(args.vcpus),
        sample_rate=args.sample_rate,
    )
    print(render_figure2(report))
    return 0


def _cmd_flow(args) -> int:
    runner = FlowRunner()
    aig = benchmarks.build(args.design, args.scale)
    recipe = tuple(args.recipe) if args.recipe else None
    flow = (
        runner.run(aig, recipe=recipe) if recipe is not None else runner.run(aig)
    )
    print(f"design {aig.name}: {aig.num_ands} ANDs, depth {aig.depth()}")
    for stage, result in flow.stages.items():
        print(f"  {result.summary()}")
    sta = flow[EDAStage.STA].artifact
    print(
        f"  timing: critical path {sta.max_arrival:.0f} ps through "
        f"{len(sta.critical_path)} nodes; WNS {sta.wns:.1f} ps"
    )
    if args.verilog_out:
        from .netlist.verilog import write_verilog

        write_verilog(flow[EDAStage.SYNTHESIS].artifact, args.verilog_out)
        print(f"  netlist written to {args.verilog_out}")
    return 0


def _cmd_optimize(args) -> int:
    report = characterize(
        args.design, scale=args.scale, sample_rate=args.sample_rate
    )
    series = run_table1_figure6(report, deadlines=args.deadlines)
    print(render_table1(series["menu"], series["table1"]))
    for row in series["table1"]:
        if not row["feasible"]:
            continue
        print(
            f"deadline {row['deadline_s']:,.0f}s: ${row['total_cost_usd']:.4f} "
            f"(saves {row['saving_vs_over_pct']:.1f}% vs over-, "
            f"{row['saving_vs_under_pct']:.1f}% vs under-provisioning)"
        )
    return 0


def _cmd_predict(args) -> int:
    from .core.predict import DatasetSpec, build_datasets, train_predictors

    spec = DatasetSpec(
        variants_per_design=args.variants, scale=args.dataset_scale
    )
    datasets = build_datasets(spec, verbose=True)
    suite = train_predictors(
        datasets, epochs=args.epochs, lr=args.lr, verbose=True
    )
    for stage, predictor in suite.predictors.items():
        print(
            f"{stage.value:10s} accuracy {predictor.accuracy:5.1f}% "
            f"(test error {100 * predictor.test_eval.mean_error:.1f}%)"
        )
    if args.save:
        from .core.persistence import save_suite

        save_suite(suite, args.save)
        print(f"models saved to {args.save}")
    return 0


def _cmd_verify(args) -> int:
    from .obs.log import default_crash_dir
    from .verify import ORACLES, run_fuzz, run_trial
    from .verify.fuzz import dump_trial_forensics

    if args.list:
        for name in ORACLES:
            print(name)
        return 0
    dump_dir = args.dump_dir if args.dump_dir else default_crash_dir()
    if args.corpus is not None:
        from .verify import load_corpus, replay_entry

        try:
            entries = load_corpus(args.corpus)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        failed = 0
        for entry in entries:
            messages = replay_entry(entry)
            status = "ok" if not messages else "FAIL"
            print(f"corpus {entry.oracle}@{entry.seed}: {status}")
            for message in messages:
                print(f"  {message}")
            failed += 1 if messages else 0
        print(
            f"{'FAIL' if failed else 'PASS'}: {len(entries)} corpus "
            f"entries, {failed} regressed"
        )
        return 1 if failed else 0
    if args.replay_seed is not None:
        if not args.oracle or len(args.oracle) != 1:
            print("--replay-seed requires exactly one --oracle", file=sys.stderr)
            return 2
        messages = run_trial(args.oracle[0], args.replay_seed)
        if messages:
            # Re-emit the flight-recorder dump from an isolated
            # deterministic scope — byte-identical to the original
            # fuzz run's dump for this seed.
            path = dump_trial_forensics(
                args.oracle[0], args.replay_seed, dump_dir
            )
            print(
                f"replay {args.oracle[0]}@{args.replay_seed}: FAIL "
                f"(dump: {path})"
            )
            for message in messages:
                print(f"  {message}")
            return 1
        print(f"replay {args.oracle[0]}@{args.replay_seed}: ok")
        return 0
    try:
        report = run_fuzz(
            oracle_names=args.oracle,
            trials=args.trials,
            seed=args.seed,
            dump_dir=dump_dir,
            corpus_path=args.record_corpus,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(report.render())
    return 0 if report.ok else 1


def _cmd_execute(args) -> int:
    from .cloud.executor import ExecutionPolicy, PlanExecutor
    from .cloud.spot import SpotMarket

    report = characterize(
        args.design, scale=args.scale, sample_rate=args.sample_rate
    )
    stages = build_stage_options(
        report.stage_runtimes(), families=report.recommended_families()
    )
    profile = FAULT_PROFILES[args.profile]()
    if args.spot:
        market = SpotMarket(
            discount=args.discount,
            interrupt_rate_per_hour=profile.spot_interrupt_rate_per_hour,
            checkpoint_interval_seconds=profile.checkpoint_interval_seconds,
        )
        stages = market.augment_stage_options(stages)
    fastest = sum(s.fastest.runtime_seconds for s in stages)
    slowest = sum(s.options[0].runtime_seconds for s in stages)
    deadline = args.deadline if args.deadline else (fastest + slowest) // 2
    selection = solve_mckp_dp(stages, deadline)
    if selection is None:
        print(f"deadline {deadline:,.0f}s is not achievable (NA)")
        return 1
    plan = selection.to_plan(args.design)
    print(plan.summary())
    policy = ExecutionPolicy(
        max_preemptions_per_stage=args.max_preemptions,
        spot_discount=args.discount,
    )
    result = PlanExecutor(profile=profile, policy=policy).execute(
        plan, deadline_seconds=deadline, seed=args.seed, stage_options=stages
    )
    print(result.summary())
    if args.trace:
        print(result.trace.render())
    return 0 if result.completed else 1


def _record_timestamp(args) -> str:
    """``--timestamp``, else the current UTC time.

    The one wall-clock read behind persisted run records: it happens
    here, at the CLI boundary, so library code stays replayable.
    """
    if args.timestamp:
        return args.timestamp
    from datetime import datetime, timezone

    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _bench_plan(runtimes: Dict[EDAStage, float]) -> DeploymentPlan:
    """A fixed mixed spot/on-demand plan over the measured flow runtimes."""
    spot = VMConfig(
        name="gp.4x.spot",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=0.06,
    )
    on_demand = VMConfig(
        name="gp.4x",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=0.20,
    )
    plan = DeploymentPlan(design="bench")
    for stage in EDAStage.ordered():
        vm = spot if stage in (EDAStage.SYNTHESIS, EDAStage.ROUTING) else on_demand
        plan.add(stage, vm, max(1.0, runtimes[stage]))
    return plan


def _cmd_trace(args) -> int:
    import json as _json

    from .obs import MetricsRegistry, Tracer, scoped
    from .obs.export import (
        render_metrics,
        render_tree,
        to_chrome_trace,
        to_json_doc,
    )
    from .obs.profile import build_profile, render_profile

    tracer = Tracer(deterministic=args.deterministic)
    registry = MetricsRegistry()
    with scoped(tracer=tracer, metrics=registry):
        runner = FlowRunner(seed=args.seed)
        aig = benchmarks.build(args.design, args.scale)
        if args.workload == "flow":
            from .perf import make_instrument

            instruments = {
                stage: make_instrument(4, sample_rate=4)
                for stage in EDAStage.ordered()
            }
            runner.run(aig, seed=args.seed, instruments=instruments)
        else:
            from .cloud.executor import ExecutionPolicy, PlanExecutor

            flow = runner.run(aig, seed=args.seed)
            plan = _bench_plan(
                {s: r.runtime(4) for s, r in flow.stages.items()}
            )
            PlanExecutor(
                profile=FAULT_PROFILES[args.profile](),
                policy=ExecutionPolicy(),
            ).execute(
                plan,
                deadline_seconds=plan.total_runtime * 4,
                seed=args.seed,
            )
    snapshot = registry.snapshot()
    profile = build_profile(tracer.spans)
    print(render_tree(tracer.spans, unit="ms"))
    rendered = render_metrics(snapshot)
    if rendered:
        print(rendered)
    print(render_profile(profile))
    if args.json:
        with open(args.json, "w") as handle:
            _json.dump(
                to_json_doc(tracer.spans, snapshot), handle,
                sort_keys=True, indent=2,
            )
        print(f"trace JSON written to {args.json}")
    if args.chrome:
        with open(args.chrome, "w") as handle:
            _json.dump(to_chrome_trace(tracer.spans), handle, sort_keys=True)
        print(f"chrome trace written to {args.chrome}")
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(profile.to_folded())
        print(f"folded stacks written to {args.folded}")
    return 0


def _cmd_report(args) -> int:
    from .obs.report import build_report, render_html, render_text
    from .obs.store import (
        DEFAULT_STORE_PATH,
        RunStore,
        StoreError,
        filter_runs,
    )

    store = RunStore(args.store or DEFAULT_STORE_PATH)
    try:
        runs = store.load()
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.kind:
        runs = filter_runs(runs, kinds=args.kind)
    if args.window < 1:
        print("--window must be >= 1", file=sys.stderr)
        return 2
    report = build_report(
        runs, window=args.window, metric_filter=args.metric
    )
    print(render_text(report, store_path=store.path))
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(render_html(report, store_path=store.path))
            handle.write("\n")
        print(f"HTML dashboard written to {args.html}")
    if not runs:
        return 0
    return 0 if report.ok else 1


def _cmd_slo(args) -> int:
    from .obs.export import to_openmetrics
    from .obs.metrics import MetricsSnapshot, merge_snapshots
    from .obs.slo import SLOError, evaluate_slo, load_slo_spec
    from .obs.store import (
        DEFAULT_STORE_PATH,
        RunStore,
        StoreError,
        filter_runs,
    )

    try:
        spec = load_slo_spec(args.spec)
    except SLOError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    store = RunStore(args.store or DEFAULT_STORE_PATH)
    try:
        runs = store.load()
    except StoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.window < 0:
        print("--window must be >= 0", file=sys.stderr)
        return 2
    report = evaluate_slo(spec, runs, rev=args.rev, window=args.window)
    for line in report.render():
        print(line)
    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write(report.to_json())
        print(f"evaluation document written to {args.dump}")
    if args.openmetrics:
        merged = MetricsSnapshot()
        for record in filter_runs(runs, kinds=[spec.kind], rev=args.rev):
            merged = merge_snapshots(merged, record.snapshot)
        with open(args.openmetrics, "w") as handle:
            handle.write(to_openmetrics(merged))
        print(f"OpenMetrics exposition written to {args.openmetrics}")
    return 1 if report.violated else 0


def _cmd_serve(args) -> int:
    from .obs.store import git_rev
    from .service import (
        ServiceConfig,
        run_session,
        seeded_job_mix,
        session_log,
    )

    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return 2
    requests = seeded_job_mix(
        args.seed,
        args.jobs,
        kinds=tuple(args.kinds),
        priorities=tuple(args.priorities),
        design=args.design,
        scale=args.scale,
    )
    config = ServiceConfig(
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate_capacity=args.rate_capacity,
        rate_refill_per_second=args.rate_refill,
        crash_dir=args.crash_dir,
        rev=args.rev or git_rev(),
    )
    result = run_session(requests, config)
    service = result.service
    states = sorted(
        {job.state.value for job in service.jobs.values()}
    )
    print(
        f"service session seed={args.seed}: {result.accepted} admitted, "
        f"{result.rejected} rejected "
        f"({args.workers} workers, queue depth {args.queue_depth})"
    )
    for code in sorted(service.admission.rejected):
        print(
            f"  rejected [{code}]: {service.admission.rejected[code]} "
            f"request(s)"
        )
    lines = session_log(service)
    for line in lines:
        print(line)
    if args.log:
        with open(args.log, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        print(f"completion log written to {args.log}")
    if not args.no_store:
        from .obs.store import DEFAULT_STORE_PATH, RunStore

        timestamp = _record_timestamp(args)
        store = RunStore(args.store or DEFAULT_STORE_PATH)
        for record in service.records(timestamp):
            store.append(record)
        print(
            f"{len(service.terminal_order) + 1} records appended to "
            f"{store.path}"
        )
    if not service.all_terminal:
        print("ERROR: non-terminal jobs after drain", file=sys.stderr)
        return 1
    failed = [
        job.job_id
        for job in service.jobs.values()
        if job.state.value == "failed"
    ]
    if failed:
        print(f"ERROR: {len(failed)} job(s) failed: {failed}", file=sys.stderr)
        return 1
    print(f"all {result.accepted} jobs terminal ({', '.join(states)})")
    return 0


def _cmd_submit(args) -> int:
    import json as _json

    from .service import (
        JobRequest,
        ServiceConfig,
        ServiceError,
        run_session,
    )

    params = {}
    if args.deadline is not None:
        params["deadline_seconds"] = args.deadline
    request = JobRequest(
        kind=args.kind,
        design=args.design,
        scale=args.scale,
        seed=args.seed,
        flow_seed=args.flow_seed,
        priority=args.priority,
        client=args.client,
        timeout_seconds=args.timeout,
        params=params,
    )
    try:
        request.validate()
    except ServiceError as exc:
        print(_json.dumps(exc.to_response(), sort_keys=True, indent=2))
        return 1
    result = run_session([request], ServiceConfig(workers=1))
    outcome = result.outcomes[0]
    if not outcome.get("accepted"):
        print(
            _json.dumps(
                {"error": outcome["error"]}, sort_keys=True, indent=2
            )
        )
        return 1
    job = result.service.jobs[outcome["job_id"]]
    print(_json.dumps(job.to_public_dict(), sort_keys=True, indent=2))
    return 0 if job.state.value == "done" else 1


def _cmd_fleet(args) -> int:
    import time as _time

    from .fleet import (
        ContinuousSession,
        FleetPlanner,
        SpotMarketFeed,
        group_flows,
        synthetic_fleet,
    )

    if args.flows < 1 or args.menus < 1 or args.deadline_buckets < 1:
        print(
            "--flows, --menus, and --deadline-buckets must be >= 1",
            file=sys.stderr,
        )
        return 2
    if args.ticks < 0 or args.execute_per_tick < 0:
        print(
            "--ticks and --execute-per-tick must be >= 0", file=sys.stderr
        )
        return 2
    menus, flows = synthetic_fleet(
        seed=args.seed,
        flows=args.flows,
        menus=args.menus,
        deadline_buckets=args.deadline_buckets,
    )
    planner = FleetPlanner(mode=args.mode, prune=not args.no_prune)

    if args.ticks:
        session = ContinuousSession(
            menus,
            flows,
            feed=SpotMarketFeed(seed=args.seed),
            planner=planner,
            seed=args.seed,
            execute_per_tick=args.execute_per_tick,
        )
        report = session.run(args.ticks)
        dump = report.dump()
        print(dump, end="")
        plan = report.final_plan
        stats = plan.stats
        throughput = None
    else:
        for menu_id in sorted(menus):
            planner.register_menu(menu_id, menus[menu_id])
        # Grouping is part of planning a fleet, so it is timed too.
        started = _time.perf_counter()
        plan = planner.plan(group_flows(flows))
        elapsed = _time.perf_counter() - started
        stats = plan.stats
        throughput = stats.flows / elapsed if elapsed > 0 else 0.0
        dump = plan.dump()
        print(dump.splitlines()[0])

    print(
        f"fleet seed={args.seed} mode={args.mode}: {stats.flows} flows in "
        f"{stats.groups} groups ({stats.group_hits} amortized hits, "
        f"{stats.tables_built} tables built, {stats.approx_solves} approx "
        f"solves, {stats.pruned_options} options pruned)"
    )
    print(
        f"  feasible {stats.feasible_flows} / infeasible "
        f"{stats.infeasible_flows}; total cost ${plan.total_cost:.4f}; "
        f"max certified gap {plan.max_certified_gap:.6f}"
    )
    if throughput is not None:
        print(f"  planned {throughput:,.0f} flows/sec")
    if args.dump:
        with open(args.dump, "w") as handle:
            handle.write(dump)
        print(f"plan dump written to {args.dump}")
    if (
        args.min_throughput is not None
        and throughput is not None
        and throughput < args.min_throughput
    ):
        print(
            f"FAIL: throughput {throughput:,.0f} flows/sec below "
            f"--min-throughput {args.min_throughput:,.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_benchmarks(_args) -> int:
    print(f"{'name':<14} {'kind':<12} note")
    for name in benchmarks.all_names():
        info = benchmarks.info(name)
        print(f"{name:<14} {info.kind:<12} {info.note}")
    return 0


_COMMANDS = {
    "characterize": _cmd_characterize,
    "flow": _cmd_flow,
    "optimize": _cmd_optimize,
    "predict": _cmd_predict,
    "benchmarks": _cmd_benchmarks,
    "verify": _cmd_verify,
    "execute": _cmd_execute,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "slo": _cmd_slo,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
