"""Tests for the characterization pipeline (Problem 1 / Figure 2)."""

import hashlib
import json
from dataclasses import asdict

import pytest

from repro.cloud import InstanceFamily
from repro.core.characterize import (
    CharacterizationReport,
    StageCharacterization,
    characterize,
    recommend_family,
)
from repro.eda.job import EDAStage
from repro.perf import PerfCounters


def synthetic_stage(stage, cache_miss, avx, speedup8):
    """Build a StageCharacterization with prescribed counter shapes."""
    char = StageCharacterization(stage=stage)
    for v in (1, 8):
        c = PerfCounters(
            instructions=1000,
            branches=100,
            branch_misses=5,
            l1_hits=800,
            l1_misses=200,
            llc_hits=int(200 * (1 - cache_miss)),
            llc_misses=int(200 * cache_miss),
            fp_avx_ops=int(4000 * avx),
        )
        char.counters[v] = c
        char.runtimes[v] = 1000.0 if v == 1 else 1000.0 / speedup8
    return char


class TestRecommendationRules:
    def test_memory_hungry_gets_memory_optimized(self):
        char = synthetic_stage(EDAStage.PLACEMENT, cache_miss=0.45, avx=0.3, speedup8=2.3)
        assert recommend_family(char) == InstanceFamily.MEMORY_OPTIMIZED

    def test_balanced_gets_general_purpose(self):
        char = synthetic_stage(EDAStage.SYNTHESIS, cache_miss=0.10, avx=0.0, speedup8=1.8)
        assert recommend_family(char) == InstanceFamily.GENERAL_PURPOSE

    def test_report_recommendations(self):
        report = CharacterizationReport(design="x")
        report.stages[EDAStage.SYNTHESIS] = synthetic_stage(
            EDAStage.SYNTHESIS, 0.12, 0.0, 1.8
        )
        report.stages[EDAStage.PLACEMENT] = synthetic_stage(
            EDAStage.PLACEMENT, 0.45, 0.3, 2.3
        )
        report.stages[EDAStage.ROUTING] = synthetic_stage(
            EDAStage.ROUTING, 0.28, 0.0, 6.2
        )
        report.stages[EDAStage.STA] = synthetic_stage(EDAStage.STA, 0.12, 0.1, 2.2)
        fams = report.recommended_families()
        assert fams[EDAStage.SYNTHESIS] == InstanceFamily.GENERAL_PURPOSE
        assert fams[EDAStage.PLACEMENT] == InstanceFamily.MEMORY_OPTIMIZED
        assert fams[EDAStage.ROUTING] == InstanceFamily.MEMORY_OPTIMIZED
        assert fams[EDAStage.STA] == InstanceFamily.GENERAL_PURPOSE

        avx = report.wants_avx()
        assert avx[EDAStage.PLACEMENT] and avx[EDAStage.STA]
        assert not avx[EDAStage.SYNTHESIS] and not avx[EDAStage.ROUTING]

        scaling = report.scales_well()
        assert scaling[EDAStage.ROUTING]
        assert not scaling[EDAStage.SYNTHESIS]

        text = "\n".join(report.recommendations_text())
        assert "general-purpose" in text
        assert "memory-to-core" in text
        assert "AVX" in text

    def test_speedup_computation(self):
        char = synthetic_stage(EDAStage.ROUTING, 0.3, 0.0, 6.0)
        assert char.speedup(8) == pytest.approx(6.0)
        assert char.speedups[1] == pytest.approx(1.0)

    def test_empty_counters_rejected(self):
        with pytest.raises(ValueError):
            recommend_family(StageCharacterization(stage=EDAStage.STA))


class TestLiveCharacterization:
    """One real (small, coarse-sampled) characterization run."""

    @pytest.fixture(scope="class")
    def report(self):
        return characterize(
            "sparc_core", scale=0.8, vcpu_levels=(1, 8), sample_rate=8
        )

    def test_all_stages_measured(self, report):
        assert set(report.stages) == set(EDAStage.ordered())
        for char in report.stages.values():
            assert set(char.runtimes) == {1, 8}
            assert set(char.counters) == {1, 8}

    def test_figure2a_routing_has_highest_branch_misses(self, report):
        rates = {
            s: sum(c.branch_miss_rates().values()) for s, c in report.stages.items()
        }
        assert max(rates, key=rates.get) == EDAStage.ROUTING

    def test_figure2c_placement_leads_avx_then_sta(self, report):
        shares = {
            s: sum(c.avx_shares().values()) for s, c in report.stages.items()
        }
        ordered = sorted(shares, key=shares.get, reverse=True)
        assert ordered[0] == EDAStage.PLACEMENT
        assert ordered[1] == EDAStage.STA

    def test_figure2d_routing_scales_best_synthesis_worst(self, report):
        spd = {s: c.speedup(8) for s, c in report.stages.items()}
        assert max(spd, key=spd.get) == EDAStage.ROUTING
        assert min(spd, key=spd.get) == EDAStage.SYNTHESIS

    def test_stage_runtimes_feed_optimizer(self, report):
        runtimes = report.stage_runtimes()
        assert all(
            runtimes[s][1] > runtimes[s][8] > 0 for s in EDAStage.ordered()
        )


#: sha256 of :func:`_characterization_digest_doc` for ``sparc_core`` at scale
#: 0.2, ``sample_rate=4``, vCPU levels 1/2/4/8.  Any change to a perf counter,
#: modelled runtime or family recommendation moves it; an engine speed-up
#: must not.
CHARACTERIZATION_PIN = (
    "488fd166faa80c69bdcb2eaad9c15b3feceddb22f304e3a96f99b0cd243485ef"
)


def _characterization_digest_doc(report):
    return {
        "stages": {
            stage.value: {
                "counters": {
                    str(v): asdict(c) for v, c in sorted(char.counters.items())
                },
                "runtimes": {str(v): t for v, t in sorted(char.runtimes.items())},
            }
            for stage, char in report.stages.items()
        },
        "families": {
            stage.value: family.value
            for stage, family in report.recommended_families().items()
        },
    }


def test_characterization_is_bit_identical_to_the_pin():
    report = characterize(
        "sparc_core", scale=0.2, vcpu_levels=(1, 2, 4, 8), sample_rate=4
    )
    doc = json.dumps(_characterization_digest_doc(report), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CHARACTERIZATION_PIN
