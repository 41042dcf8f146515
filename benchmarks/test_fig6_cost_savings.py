"""Figure 6: cost savings of the knapsack optimization vs naive baselines.

Sweeps deadline constraints over the feasible range and compares the
optimized plan's cost with over-provisioning (8 vCPUs everywhere) and
under-provisioning (1 vCPU everywhere).  The paper reports an average
saving of 35.29% "with minimal overhead to the best runtime".  The sweep
and the saving definition are :func:`repro.core.experiments.table1_figure6`'s.
"""

import numpy as np

from repro.core.report import render_figure6


def test_fig6_cost_savings(table1_figure6):
    rows = table1_figure6["figure6"]
    print("\n" + render_figure6(table1_figure6))
    assert all(r["feasible"] for r in rows)

    # The optimizer never loses to over-provisioning.
    assert all(r["saving_vs_over_pct"] >= -1e-9 for r in rows)

    # Once the deadline has any slack, savings vs over-provisioning are
    # substantial (the paper's 35.29% average); require >20% average
    # over the relaxed half of the sweep.
    relaxed = rows[len(rows) // 2 :]
    assert np.mean([r["saving_vs_over_pct"] for r in relaxed]) > 20.0

    # Under tight deadlines under-provisioning is infeasible anyway:
    assert not any(r["under_meets_deadline"] for r in rows[:2])

    # "Minimal overhead to the best runtime": at the tightest deadline the
    # plan's runtime equals the best achievable.
    assert rows[0]["total_runtime_s"] == table1_figure6["fastest_s"]


def test_fig6_average_saving_magnitude(table1_figure6):
    """Average saving across the sweep and both baselines lands in the
    paper's neighbourhood (they report 35.29%; we require 15-60%)."""
    avg = table1_figure6["average_saving_pct"]
    print(f"\naverage saving across sweep: {avg:.2f}% (paper: 35.29%)")
    assert 15.0 <= avg <= 60.0
