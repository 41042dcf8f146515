"""Tests for the end-to-end Figure 1 workflow and report renderers."""

import pytest

from repro.cloud import InstanceFamily
from repro.core import report as report_mod
from repro.core.experiments import table1_figure6
from repro.core.optimize import build_stage_options
from repro.core.workflow import CloudDeploymentWorkflow
from repro.eda.job import EDAStage


STAGE_RUNTIMES = {
    EDAStage.SYNTHESIS: {1: 6100.0, 2: 4342.0, 4: 3449.0, 8: 3352.0},
    EDAStage.PLACEMENT: {1: 1206.0, 2: 905.0, 4: 644.0, 8: 519.0},
    EDAStage.ROUTING: {1: 10461.0, 2: 5514.0, 4: 2894.0, 8: 1692.0},
    EDAStage.STA: {1: 183.0, 2: 119.0, 4: 90.0, 8: 82.0},
}


class TestOptimizeDeployment:
    def test_feasible_outcome(self):
        wf = CloudDeploymentWorkflow()
        outcome = wf.optimize_deployment(STAGE_RUNTIMES, 10000, design="sparc")
        assert outcome.feasible
        plan = outcome.plan()
        assert plan.total_runtime <= 10000
        assert plan.total_cost > 0
        assert len(plan.assignments) == 4

    def test_infeasible_outcome(self):
        wf = CloudDeploymentWorkflow()
        outcome = wf.optimize_deployment(STAGE_RUNTIMES, 1000, design="sparc")
        assert not outcome.feasible
        with pytest.raises(ValueError):
            outcome.plan()

    def test_families_follow_recommendations(self):
        wf = CloudDeploymentWorkflow()
        outcome = wf.optimize_deployment(STAGE_RUNTIMES, 12000)
        plan = outcome.plan()
        by_stage = {a.stage: a.vm.family for a in plan.assignments}
        assert by_stage[EDAStage.ROUTING] == InstanceFamily.MEMORY_OPTIMIZED
        assert by_stage[EDAStage.SYNTHESIS] == InstanceFamily.GENERAL_PURPOSE

    def test_predict_requires_training(self):
        wf = CloudDeploymentWorkflow()
        from repro.netlist import benchmarks

        with pytest.raises(ValueError):
            wf.predict_runtimes(benchmarks.build("ctrl", 0.3))


class TestReportRenderers:
    def test_render_table1(self):
        series = table1_figure6(
            build_stage_options(STAGE_RUNTIMES), deadlines=[10000, 6000, 1000]
        )
        text = report_mod.render_table1(series["menu"], series["table1"])
        assert "Synthesis" in text
        assert "NA" in text  # the infeasible row
        assert "Runtime (sec) per configuration" in text

    def test_render_figure6(self):
        series = dict(
            over_provisioning_cost=0.75,
            under_provisioning_cost=0.54,
            average_saving_pct=34.7,
            figure6=[
                dict(
                    deadline_s=10000,
                    total_cost_usd=0.41,
                    saving_vs_over_pct=45.3,
                    saving_vs_under_pct=24.1,
                    under_meets_deadline=False,
                )
            ],
        )
        text = report_mod.render_figure6(series)
        assert "Average cost saving: 34.70%" in text
        assert "45.3%" in text
        assert "24.1%" not in text  # under-provisioning misses the deadline

    def test_render_figure5(self):
        text = report_mod.render_figure5(
            {"netlist models": {"0-10%": 5, "10-20%": 2}},
            {"netlist models": 0.13},
        )
        assert "13.0%" in text
        assert "#" in text

    def test_render_figure3(self):
        text = report_mod.render_figure3(
            {"dynamic_node": {1: 1.0, 8: 2.0}, "sparc_core": {1: 1.0, 8: 6.0}}
        )
        assert "dynamic_node" in text
        assert "6.00x" in text

    def test_format_table_alignment(self):
        text = report_mod.format_table(["a", "bb"], [["1", "2"], ["33", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines)) == 1  # fixed width
