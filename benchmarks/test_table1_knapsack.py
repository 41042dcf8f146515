"""Table I: minimizing total deployment cost subject to a time constraint.

Regenerates the whole table from the characterization runtimes through
:func:`repro.core.experiments.table1_figure6`: the runtime/cost menu per
stage at 1/2/4/8 vCPUs, the recommended configuration under each
total-runtime constraint, and the NA row for an unachievable deadline.
"""

import pytest

from repro.core.optimize import solve_brute_force, solve_mckp_dp
from repro.core.report import render_table1


def _feasible_rows(table1_figure6):
    rows = [r for r in table1_figure6["table1"] if r["feasible"]]
    return sorted(rows, key=lambda r: r["deadline_s"])


def test_table1_selections(table1_figure6):
    rows = table1_figure6["table1"]
    print("\n" + render_table1(table1_figure6["menu"], rows))

    fastest = table1_figure6["fastest_s"]

    # Feasible constraints are met; the too-tight one is NA.
    for row in rows:
        if row["deadline_s"] >= fastest:
            assert row["feasible"]
            assert row["total_runtime_s"] <= row["deadline_s"]
        else:
            assert not row["feasible"]  # the paper's "NA" row

    # Tightening the constraint never lowers the cost.
    feasible = _feasible_rows(table1_figure6)
    costs = [r["total_cost_usd"] for r in feasible]
    assert costs == sorted(costs, reverse=True) or costs == sorted(costs)
    # (costs increase as deadlines tighten: largest deadline = cheapest)
    assert feasible[-1]["total_cost_usd"] <= feasible[0]["total_cost_usd"]

    # At the exact fastest-possible deadline every stage uses its fastest VM.
    boundary = next(r for r in rows if r["deadline_s"] == fastest)
    for stage, entry in table1_figure6["menu"].items():
        options = entry["options"]
        fastest_vcpus = min(options, key=lambda v: options[v]["runtime_s"])
        assert boundary["vcpus"][stage] == fastest_vcpus


def _escalates_selectively(feasible):
    """True when some adjacent pair of rows (sorted by deadline) escalates
    a non-empty *strict* subset of stages: more vCPUs at the tighter
    deadline for some stages, but not for all of them."""
    for tight, loose in zip(feasible, feasible[1:]):
        vcpus = tight["vcpus"]
        escalated = [s for s in vcpus if vcpus[s] > loose["vcpus"][s]]
        if 0 < len(escalated) < len(vcpus):
            return True
    return False


def test_table1_escalation_is_selective(table1_figure6):
    """Tightening the deadline escalates *some* stages, not all at once —
    the behaviour the paper highlights in Table I."""
    assert _escalates_selectively(_feasible_rows(table1_figure6))


def test_escalation_check_rejects_all_at_once():
    stages = ("synthesis", "placement", "routing", "sta")
    rows = [
        {"deadline_s": 100.0, "vcpus": {s: 8 for s in stages}},
        {"deadline_s": 200.0, "vcpus": {s: 2 for s in stages}},
        {"deadline_s": 300.0, "vcpus": {s: 2 for s in stages}},
    ]
    assert not _escalates_selectively(rows)
    rows[1]["vcpus"]["sta"] = 8
    assert _escalates_selectively(rows)


def test_table1_dp_is_optimal(paper_stage_options, table1_figure6):
    """The pseudo-polynomial DP matches exhaustive search on the real data."""
    deadline = _feasible_rows(table1_figure6)[0]["deadline_s"]
    dp = solve_mckp_dp(paper_stage_options, deadline)
    bf = solve_brute_force(paper_stage_options, deadline)
    assert dp.objective_inverse_price == pytest.approx(bf.objective_inverse_price)


def test_table1_runtime_menu_matches_paper_magnitudes(table1_figure6):
    """Per-stage 1-vCPU runtimes land in the paper's regime (same order)."""
    rt1 = {
        stage: entry["options"][1]["runtime_s"]
        for stage, entry in table1_figure6["menu"].items()
    }
    paper = {
        "synthesis": 6100,
        "placement": 1206,
        "routing": 10461,
        "sta": 183,
    }
    for stage, expected in paper.items():
        assert 0.4 * expected <= rt1[stage] <= 2.5 * expected, (stage, rt1[stage])
    # Relative ordering: routing > synthesis > placement > STA.
    assert rt1["routing"] > rt1["synthesis"]
    assert rt1["synthesis"] > rt1["placement"]
    assert rt1["placement"] > rt1["sta"]
