"""Text renderers for the paper's tables and figures.

Every experiment's bench prints through these, so the console output has
the same rows/series the paper reports: Figure 2's four panels, Figure 3's
speedup-vs-design table, Figure 5's error histogram, Table I, and Figure
6's savings bars.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..cloud.instance import InstanceFamily
from ..eda.job import EDAStage
from .characterize import CharacterizationReport

__all__ = [
    "render_figure2",
    "render_figure3",
    "render_figure5",
    "render_table1",
    "render_figure6",
    "format_table",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Minimal fixed-width table renderer."""
    rows = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(r) for r in rows)
    return "\n".join(lines)


def render_figure2(report: CharacterizationReport) -> str:
    """Figure 2: the four characterization panels as tables."""
    sections = []
    stages = [s for s in EDAStage.ordered() if s in report.stages]
    levels = report.stages[stages[0]].vcpu_levels

    def panel(title: str, getter) -> str:
        headers = ["vCPUs"] + [s.display_name for s in stages]
        rows = []
        for v in levels:
            row = [str(v)]
            for s in stages:
                row.append(f"{100 * getter(report.stages[s])[v]:.2f}%")
            rows.append(row)
        return f"{title}\n{format_table(headers, rows)}"

    sections.append(
        panel("(a) Branch misses (% of all branches)", lambda c: c.branch_miss_rates())
    )
    sections.append(
        panel("(b) Cache misses (% of cache references)", lambda c: c.cache_miss_rates())
    )
    sections.append(
        panel("(c) AVX utilization (% of instructions)", lambda c: c.avx_shares())
    )
    headers = ["vCPUs"] + [s.display_name for s in stages]
    rows = []
    for v in levels:
        rows.append([str(v)] + [f"{report.stages[s].speedup(v):.2f}x" for s in stages])
    sections.append(f"(d) Speedup vs. 1 vCPU\n{format_table(headers, rows)}")
    sections.append("Main takeaways:")
    sections.extend(f"  - {line}" for line in report.recommendations_text())
    return "\n\n".join(sections)


def render_figure3(speedups_by_design: Mapping[str, Mapping[int, float]]) -> str:
    """Figure 3: routing speedup per design (smallest to largest)."""
    designs = list(speedups_by_design)
    levels = sorted(next(iter(speedups_by_design.values())))
    headers = ["design"] + [f"{v} vCPU" for v in levels]
    rows = [
        [name] + [f"{speedups_by_design[name][v]:.2f}x" for v in levels]
        for name in designs
    ]
    return "Routing speedup for different designs\n" + format_table(headers, rows)


def render_figure5(
    histograms: Mapping[str, Mapping[str, int]],
    mean_errors: Mapping[str, float],
) -> str:
    """Figure 5: prediction error histograms plus the average errors."""
    parts = []
    for name, hist in histograms.items():
        total = sum(hist.values()) or 1
        lines = [f"Prediction error histogram — {name}"]
        for label, count in hist.items():
            bar = "#" * int(round(40 * count / total))
            lines.append(f"  {label:>9s} | {bar} {count}")
        parts.append("\n".join(lines))
    parts.append(
        "Average errors: "
        + ", ".join(f"{k}: {100 * v:.1f}%" for k, v in mean_errors.items())
    )
    return "\n\n".join(parts)


def render_table1(
    menu: Mapping[str, Mapping], rows: Sequence[Mapping]
) -> str:
    """Table I from :func:`repro.core.experiments.table1_figure6`'s
    ``menu`` and ``table1`` rows: the per-stage runtime/cost menu plus the
    selection per deadline."""
    stages = list(menu)
    levels = list(menu[stages[0]]["options"])
    headers = ["stage", "family"] + [f"{v}v" for v in levels]
    rt_rows = []
    cost_rows = []
    for stage, entry in menu.items():
        name = EDAStage(stage).display_name
        options = entry["options"].values()
        rt_rows.append(
            [name, InstanceFamily(entry["family"]).display_name]
            + [f"{o['runtime_s']:,}" for o in options]
        )
        cost_rows.append([name, ""] + [f"${o['cost_usd']:.2f}" for o in options])
    parts = [
        "Runtime (sec) per configuration\n" + format_table(headers, rt_rows),
        "Cost ($) per configuration\n" + format_table(headers, cost_rows),
    ]
    sel_headers = ["constraint"] + [
        EDAStage(s).display_name for s in stages
    ] + ["total runtime", "min cost ($)"]
    sel_rows = []
    for row in rows:
        cells = [f"{row['deadline_s']:,.0f}"]
        if not row["feasible"]:
            sel_rows.append(cells + ["NA"] * (len(stages) + 2))
            continue
        sel_rows.append(
            cells
            + [f"{row['vcpus'][s]}v" for s in stages]
            + [f"{row['total_runtime_s']:,}", f"{row['total_cost_usd']:.2f}"]
        )
    parts.append(
        "Recommended configuration per total-runtime constraint\n"
        + format_table(sel_headers, sel_rows)
    )
    return "\n\n".join(parts)


def render_figure6(series: Mapping) -> str:
    """Figure 6 from :func:`repro.core.experiments.table1_figure6`'s output:
    savings vs over-/under-provisioning per deadline and their average.

    The saving vs under-provisioning reads NA where under-provisioning
    misses the deadline, as it does not count towards the average there.
    """
    headers = [
        "constraint",
        "optimized $",
        "over-prov $",
        "under-prov $",
        "saving vs over",
        "saving vs under",
    ]
    table_rows = [
        [
            f"{r['deadline_s']:,.0f}",
            f"{r['total_cost_usd']:.2f}",
            f"{series['over_provisioning_cost']:.2f}",
            f"{series['under_provisioning_cost']:.2f}",
            f"{r['saving_vs_over_pct']:.1f}%",
            f"{r['saving_vs_under_pct']:.1f}%" if r["under_meets_deadline"] else "NA",
        ]
        for r in series["figure6"]
    ]
    return (
        "Cost savings from the multi-choice knapsack optimization\n"
        + format_table(headers, table_rows)
        + f"\nAverage cost saving: {series['average_saving_pct']:.2f}%"
    )
