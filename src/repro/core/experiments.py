"""The paper's experiments as JSON-able dictionaries, from one driver.

Each ``run_*`` function produces one figure's (or table's) series, and
every consumer reads them from here: ``pytest benchmarks`` asserts the
paper's bands on these dictionaries, ``repro optimize`` renders Table I
from them, and ``examples/full_reproduction.py`` dumps :func:`run_all`.
Table I's deadlines, Figure 6's sweep and the Figure-6 saving are
defined in this module only.

Usage::

    from repro.core.experiments import run_all
    results = run_all(quick=True)
    json.dump(results, open("results.json", "w"), indent=2)
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from ..eda.flow import FlowRunner
from ..eda.job import EDAStage
from ..gnn import split_by_design
from ..netlist import benchmarks
from .characterize import CharacterizationReport, characterize
from .optimize import (
    Selection,
    StageOptions,
    build_stage_options,
    cost_saving_percent,
    over_provisioning,
    solve_mckp_dp,
    under_provisioning,
)
from .predict import train_predictors

__all__ = [
    "FIGURE3_DESIGNS",
    "FIGURE5_BINS",
    "run_figure2",
    "run_figure3",
    "run_figure5",
    "table1_figure6",
    "run_table1_figure6",
    "run_all",
]

#: Figure 3's x-axis, smallest design to largest, with their scales.
FIGURE3_DESIGNS = (
    ("dynamic_node", 1.0),
    ("aes", 0.8),
    ("fpu", 1.0),
    ("sparc_core", 1.5),
)

#: Figure 5's relative-error histogram bin edges.
FIGURE5_BINS = (0.0, 0.05, 0.10, 0.15, 0.20, 0.30, 0.50, 1.0, 10.0)


def _stage_map(d: Dict[EDAStage, Any]) -> Dict[str, Any]:
    return {stage.value: value for stage, value in d.items()}


def run_figure2(
    design: str = "sparc_core",
    scale: float = 1.5,
    sample_rate: int = 2,
    report: Optional[CharacterizationReport] = None,
) -> Dict[str, Any]:
    """Figure 2's four panels as nested dictionaries."""
    if report is None:
        report = characterize(design, scale=scale, sample_rate=sample_rate)
    return {
        "design": report.design,
        "branch_miss_rates": _stage_map(
            {s: c.branch_miss_rates() for s, c in report.stages.items()}
        ),
        "cache_miss_rates": _stage_map(
            {s: c.cache_miss_rates() for s, c in report.stages.items()}
        ),
        "avx_shares": _stage_map(
            {s: c.avx_shares() for s, c in report.stages.items()}
        ),
        "speedups": _stage_map({s: c.speedups for s, c in report.stages.items()}),
        "recommended_families": _stage_map(
            {s: f.value for s, f in report.recommended_families().items()}
        ),
        "wants_avx": _stage_map(report.wants_avx()),
        "scales_well": _stage_map(report.scales_well()),
        "runtimes": _stage_map(report.stage_runtimes()),
    }


def run_figure3(
    designs: Sequence = FIGURE3_DESIGNS,
    vcpus: Sequence[int] = (1, 2, 4, 8),
) -> Dict[str, Any]:
    """Routing speedups per design, in ``designs`` order."""
    runner = FlowRunner()
    speedups: Dict[str, Dict[int, float]] = {}
    sizes: Dict[str, int] = {}
    for name, scale in designs:
        flow = runner.run(benchmarks.build(name, scale))
        routing = flow[EDAStage.ROUTING]
        speedups[name] = {v: routing.profile.speedup(v) for v in vcpus}
        sizes[name] = flow[EDAStage.SYNTHESIS].artifact.num_instances
    return {"speedups": speedups, "instances": sizes}


def _mean_predictor_error(samples: Sequence) -> float:
    """Error of predicting the training designs' mean log-runtime for
    every held-out design (the split ``train_predictors`` uses)."""
    train_set, test_set = split_by_design(list(samples), 0.2, 0)
    pred = np.exp(np.mean([s.log_runtimes for s in train_set], axis=0))
    return float(
        np.mean([np.mean(np.abs(pred - s.runtimes) / s.runtimes) for s in test_set])
    )


def run_figure5(
    datasets: Mapping[EDAStage, Sequence], epochs: int, lr: float
) -> Dict[str, Any]:
    """Figure 5: train one GCN per application and report, per stage, the
    held-out error histogram, test/train mean error, the mean-predictor
    baseline error and the first/last training loss."""
    suite = train_predictors(datasets, epochs=epochs, lr=lr)
    stages = {}
    for stage, predictor in suite.predictors.items():
        losses = predictor.train_result.losses
        stages[stage.value] = {
            "model": "AIG" if stage == EDAStage.SYNTHESIS else "netlist",
            "histogram": predictor.test_eval.error_histogram(FIGURE5_BINS),
            "test_error": predictor.test_eval.mean_error,
            "train_error": predictor.train_eval.mean_error,
            "accuracy_pct": predictor.accuracy,
            "baseline_error": _mean_predictor_error(datasets[stage]),
            "first_loss": losses[0],
            "last_loss": losses[-1],
        }
    return {"bins": list(FIGURE5_BINS), "stages": stages}


def _plan_row(
    stages: Sequence[StageOptions],
    deadline: float,
    over: Selection,
    under: Selection,
) -> Dict[str, Any]:
    selection = solve_mckp_dp(stages, deadline)
    if selection is None:
        return {"deadline_s": deadline, "feasible": False}
    return {
        "deadline_s": deadline,
        "feasible": True,
        "vcpus": {s.value: o.vm.vcpus for s, o in selection.choices.items()},
        "total_runtime_s": selection.total_runtime,
        "total_cost_usd": selection.total_cost,
        "saving_vs_over_pct": cost_saving_percent(
            selection.total_cost, over.total_cost
        ),
        "saving_vs_under_pct": cost_saving_percent(
            selection.total_cost, under.total_cost
        ),
        "under_meets_deadline": under.total_runtime <= deadline,
    }


def table1_figure6(
    stages: Sequence[StageOptions], deadlines: Optional[Sequence[float]] = None
) -> Dict[str, Any]:
    """Table I's menu and selections, and Figure 6's savings sweep.

    Table I's default deadlines are the slowest plan's runtime, the
    midpoint, 5% slack over the fastest, the fastest, and 85% of the
    fastest (the NA row).  Figure 6 sweeps eight deadlines from the
    fastest to the slowest runtime.  Its average saving counts every
    deadline's saving against over-provisioning, and the saving against
    under-provisioning only where under-provisioning meets the deadline.
    """
    fastest = sum(s.fastest.runtime_seconds for s in stages)
    slowest = sum(s.options[0].runtime_seconds for s in stages)
    if deadlines is None:
        deadlines = [
            slowest,
            (fastest + slowest) // 2,
            int(fastest * 1.05),
            fastest,
            int(fastest * 0.85),
        ]
    sweep = np.linspace(fastest, slowest, 8).astype(int).tolist()
    over = over_provisioning(stages)
    under = under_provisioning(stages)
    figure6 = [_plan_row(stages, d, over, under) for d in sweep]
    savings = []
    for row in figure6:
        savings.append(row["saving_vs_over_pct"])
        if row["under_meets_deadline"]:
            savings.append(row["saving_vs_under_pct"])
    return {
        "menu": {
            s.stage.value: {
                "family": s.options[0].vm.family.value,
                "options": {
                    o.vm.vcpus: {"runtime_s": o.runtime_seconds, "cost_usd": o.price}
                    for o in s.options
                },
            }
            for s in stages
        },
        "fastest_s": fastest,
        "slowest_s": slowest,
        "over_provisioning_cost": over.total_cost,
        "under_provisioning_cost": under.total_cost,
        "table1": [_plan_row(stages, d, over, under) for d in deadlines],
        "figure6": figure6,
        "average_saving_pct": float(np.mean(savings)),
    }


def run_table1_figure6(
    report: CharacterizationReport, deadlines: Optional[Sequence[float]] = None
) -> Dict[str, Any]:
    """:func:`table1_figure6` on the options priced from a characterization."""
    stages = build_stage_options(
        report.stage_runtimes(), families=report.recommended_families()
    )
    return table1_figure6(stages, deadlines)


def run_all(
    scale: float = 1.5, sample_rate: int = 2, quick: bool = False
) -> Dict[str, Any]:
    """Regenerate Figure 2/3, Table I and Figure 6 (Figure 5 is separate
    because GCN training is minutes; see :func:`run_figure5`).

    ``quick=True`` shrinks designs for smoke runs.
    """
    if quick:
        scale = min(scale, 0.8)
        sample_rate = max(sample_rate, 6)
    started = time.time()
    report = characterize("sparc_core", scale=scale, sample_rate=sample_rate)
    fig3_designs = (
        (("dynamic_node", 0.8), ("fpu", 0.8), ("sparc_core", 1.0))
        if quick
        else FIGURE3_DESIGNS
    )
    results = {
        "figure2": run_figure2(report=report),
        "figure3": run_figure3(designs=fig3_designs),
        "table1_figure6": run_table1_figure6(report),
        "meta": {
            "scale": scale,
            "sample_rate": sample_rate,
            "quick": quick,
            "wall_seconds": None,
        },
    }
    results["meta"]["wall_seconds"] = round(time.time() - started, 1)
    return results
