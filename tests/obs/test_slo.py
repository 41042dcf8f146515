"""SLO engine: spec validation, burn math, windows, byte-stable reports."""

import json

import pytest

from repro.obs.slo import (
    SLO_SCHEMA,
    SLOSpecError,
    evaluate_slo,
    load_slo_spec,
    parse_slo_spec,
)
from repro.obs.report import sparkline
from repro.obs.store import RunRecord
from repro.service import ServiceConfig, run_session, seeded_job_mix


def _spec_doc(**overrides):
    doc = {
        "schema": SLO_SCHEMA,
        "name": "test-slo",
        "kind": "service",
        "objectives": [
            {
                "name": "hit-rate",
                "type": "ratio",
                "label": "met_deadline",
                "objective": 0.5,
            },
            {
                "name": "p99",
                "type": "latency",
                "metric": "service.latency_ticks",
                "percentile": 99.0,
                "threshold": 1000.0,
            },
            {
                "name": "spend",
                "type": "cost",
                "metric": "executor.billed_cost",
                "budget": 10.0,
            },
        ],
    }
    doc.update(overrides)
    return doc


def _records(seed=42, jobs=12):
    service = run_session(
        seeded_job_mix(seed, jobs), ServiceConfig(workers=2)
    ).service
    return service.records("2026-01-01T00:00:00Z")


class TestSpecValidation:
    def test_valid_spec_parses(self):
        spec = parse_slo_spec(_spec_doc())
        assert spec.name == "test-slo"
        assert [o.type for o in spec.objectives] == [
            "ratio", "latency", "cost",
        ]

    def test_schema_mismatch_is_named_error(self):
        with pytest.raises(SLOSpecError, match="schema mismatch"):
            parse_slo_spec(_spec_doc(schema="repro-slo/0"))

    def test_ratio_objective_must_leave_error_budget(self):
        doc = _spec_doc()
        doc["objectives"][0]["objective"] = 1.0
        with pytest.raises(SLOSpecError, match=r"\[0, 1\)"):
            parse_slo_spec(doc)

    def test_unknown_objective_type_rejected(self):
        doc = _spec_doc()
        doc["objectives"][0]["type"] = "availability"
        with pytest.raises(SLOSpecError, match="unknown type"):
            parse_slo_spec(doc)

    def test_unknown_fields_rejected(self):
        doc = _spec_doc()
        doc["objectives"][0]["threshold_ticks"] = 5
        with pytest.raises(SLOSpecError, match="unknown fields"):
            parse_slo_spec(doc)

    def test_duplicate_objective_names_rejected(self):
        doc = _spec_doc()
        doc["objectives"][1]["name"] = "hit-rate"
        with pytest.raises(SLOSpecError, match="unique"):
            parse_slo_spec(doc)

    def test_nonpositive_threshold_and_budget_rejected(self):
        doc = _spec_doc()
        doc["objectives"][1]["threshold"] = 0.0
        with pytest.raises(SLOSpecError, match="positive"):
            parse_slo_spec(doc)
        doc = _spec_doc()
        doc["objectives"][2]["budget"] = -1.0
        with pytest.raises(SLOSpecError, match="positive"):
            parse_slo_spec(doc)

    def test_load_missing_file_is_named_error(self, tmp_path):
        with pytest.raises(SLOSpecError, match="cannot read"):
            load_slo_spec(str(tmp_path / "absent.json"))

    def test_load_bad_json_is_named_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SLOSpecError, match="not valid JSON"):
            load_slo_spec(str(path))


class TestEvaluation:
    def test_burn_above_one_iff_violated(self):
        spec = parse_slo_spec(_spec_doc())
        report = evaluate_slo(spec, _records())
        for result in report.results:
            if result.burn is not None:
                assert (result.burn > 1.0) == (not result.passed)

    def test_tiny_budget_violates(self):
        doc = _spec_doc()
        doc["objectives"][2]["budget"] = 1e-9
        report = evaluate_slo(parse_slo_spec(doc), _records())
        spend = next(r for r in report.results if r.name == "spend")
        assert not spend.passed and spend.burn > 1.0
        assert report.violated

    def test_no_data_objective_passes_vacuously(self):
        doc = _spec_doc()
        doc["objectives"][0]["label"] = "never_recorded_label"
        report = evaluate_slo(parse_slo_spec(doc), _records())
        hit = next(r for r in report.results if r.name == "hit-rate")
        assert hit.no_data and hit.passed and hit.burn is None

    def test_empty_store_passes_vacuously(self):
        report = evaluate_slo(parse_slo_spec(_spec_doc()), [])
        assert report.records == 0
        assert not report.violated
        assert all(r.no_data for r in report.results)

    def test_windows_partition_records(self):
        import math

        spec = parse_slo_spec(_spec_doc())
        records = _records()
        report = evaluate_slo(spec, records, window=5)
        for result in report.results:
            assert len(result.windows) == math.ceil(report.records / 5)

    def test_report_json_is_byte_stable(self):
        spec = parse_slo_spec(_spec_doc())
        records = _records()
        first = evaluate_slo(spec, records, window=4)
        second = evaluate_slo(spec, records, window=4)
        assert first.to_json() == second.to_json()
        assert first.render() == second.render()

    def test_same_seed_sessions_evaluate_identically(self):
        spec = parse_slo_spec(_spec_doc())
        a = evaluate_slo(spec, _records(), window=3)
        b = evaluate_slo(spec, _records(), window=3)
        assert a.to_json() == b.to_json()

    def test_kind_filter_excludes_other_records(self):
        spec = parse_slo_spec(_spec_doc(kind="bench"))
        report = evaluate_slo(spec, _records())
        assert report.records == 0


class TestSparkline:
    def test_burn_one_is_full_block(self):
        assert sparkline([1.0], lo=0.0, hi=1.0) == "█"
        assert sparkline([0.0], lo=0.0, hi=1.0) == "▁"
        assert sparkline([None], lo=0.0, hi=1.0) == "·"
        assert sparkline([5.0], lo=0.0, hi=1.0) == "█"  # clamped

    def test_length_matches_windows(self):
        assert len(sparkline([0.1, 0.5, None, 1.0], lo=0.0, hi=1.0)) == 4
