"""Tests for the structured experiment runner."""

import json

import pytest

from repro.core.experiments import (
    FIGURE5_BINS,
    run_figure2,
    run_figure3,
    run_figure5,
    run_table1_figure6,
)
from repro.core.predict import DatasetSpec, build_datasets


@pytest.fixture(scope="module")
def fig2():
    return run_figure2(design="router", scale=0.6, sample_rate=8)


class TestFigure2Runner:
    def test_all_panels_present(self, fig2):
        for key in (
            "branch_miss_rates",
            "cache_miss_rates",
            "avx_shares",
            "speedups",
            "recommended_families",
            "runtimes",
        ):
            assert key in fig2

    def test_stage_keys_are_strings(self, fig2):
        assert set(fig2["speedups"]) == {"synthesis", "placement", "routing", "sta"}

    def test_json_serializable(self, fig2):
        json.dumps(fig2)  # must not raise

    def test_speedups_start_at_one(self, fig2):
        for series in fig2["speedups"].values():
            assert series[1] == pytest.approx(1.0)


class TestFigure3Runner:
    def test_structure(self):
        out = run_figure3(designs=(("dynamic_node", 0.6), ("fpu", 0.6)), vcpus=(1, 8))
        assert set(out["speedups"]) == {"dynamic_node", "fpu"}
        assert out["instances"]["fpu"] > out["instances"]["dynamic_node"]
        json.dumps(out)


class TestFigure5Runner:
    def test_series(self):
        datasets = build_datasets(DatasetSpec(variants_per_design=1, scale=0.1))
        out = run_figure5(datasets, epochs=2, lr=1e-3)
        assert out["bins"] == list(FIGURE5_BINS)
        assert set(out["stages"]) == {"synthesis", "placement", "routing", "sta"}
        assert out["stages"]["synthesis"]["model"] == "AIG"
        for series in out["stages"].values():
            assert len(series["histogram"]) == len(FIGURE5_BINS) - 1
            assert series["test_error"] > 0 and series["baseline_error"] > 0
            assert series["first_loss"] > 0 and series["last_loss"] > 0
        json.dumps(out)


class TestTable1Runner:
    def test_menu_and_selections(self):
        from repro.core.characterize import characterize

        report = characterize("router", scale=0.6, sample_rate=8)
        out = run_table1_figure6(report)
        assert set(out["menu"]) == {"synthesis", "placement", "routing", "sta"}
        feasible = [r for r in out["table1"] if r["feasible"]]
        infeasible = [r for r in out["table1"] if not r["feasible"]]
        assert feasible and infeasible
        assert out["over_provisioning_cost"] > 0
        # The sweep runs fastest -> slowest inclusive, so the relaxed end
        # is the one deadline under-provisioning meets.
        assert out["figure6"][0]["deadline_s"] == out["fastest_s"]
        assert out["figure6"][-1]["deadline_s"] == out["slowest_s"]
        assert out["figure6"][-1]["under_meets_deadline"]
        assert out["average_saving_pct"] >= 0
        json.dumps(out)
