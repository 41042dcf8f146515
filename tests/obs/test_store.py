"""Run-store tests: JSONL roundtrip, named errors, series, percentiles."""

import json

import pytest

from repro.obs import MetricsRegistry
from repro.obs.store import (
    DEFAULT_STORE_PATH,
    RUNS_SCHEMA,
    RunRecord,
    RunStore,
    StoreCorruptError,
    StoreError,
    StoreSchemaError,
    histogram_percentile,
    merged_histogram,
    metric_names,
    metric_series,
    metric_value,
    percentile_summary,
)


def _record(rev="r1", seed=0, cost=1.5, hist_values=()):
    registry = MetricsRegistry()
    registry.counter("executor.billed_cost").inc(cost)
    registry.gauge("bench.gnn.final_loss").set(0.25)
    for value in hist_values:
        registry.histogram("stage.seconds").observe(value)
    return RunRecord(
        kind="bench",
        rev=rev,
        seed=seed,
        timestamp_utc="2026-08-06T00:00:00Z",
        scale=0.3,
        labels={"design": "ctrl"},
        metrics=registry.snapshot().to_dict(),
    )


class TestRunRecord:
    def test_roundtrip(self):
        record = _record()
        doc = record.to_dict()
        assert doc["schema"] == RUNS_SCHEMA
        again = RunRecord.from_dict(doc)
        assert again == record

    def test_schema_mismatch_is_named_error(self):
        doc = _record().to_dict()
        doc["schema"] = "repro-runs/99"
        with pytest.raises(StoreSchemaError) as err:
            RunRecord.from_dict(doc, line=3)
        message = str(err.value)
        assert "repro-runs/1" in message
        assert "repro-runs/99" in message
        assert "line 3" in message

    def test_missing_fields_is_corrupt_not_keyerror(self):
        doc = _record().to_dict()
        del doc["rev"]
        del doc["seed"]
        with pytest.raises(StoreCorruptError) as err:
            RunRecord.from_dict(doc)
        assert "rev" in str(err.value) and "seed" in str(err.value)

    def test_named_errors_share_a_base(self):
        assert issubclass(StoreSchemaError, StoreError)
        assert issubclass(StoreCorruptError, StoreError)


class TestRunStore:
    def test_append_then_load(self, tmp_path):
        store = RunStore(str(tmp_path / "runs.jsonl"))
        store.append(_record(rev="a"))
        store.append(_record(rev="b"))
        runs = store.load()
        assert [r.rev for r in runs] == ["a", "b"]
        assert len(store) == 2

    def test_missing_file_is_empty(self, tmp_path):
        assert RunStore(str(tmp_path / "absent.jsonl")).load() == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(str(path))
        store.append(_record())
        path.write_text(path.read_text() + "\n\n")
        assert len(store.load()) == 1

    def test_bad_json_line_reports_line_number(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = RunStore(str(path))
        store.append(_record())
        with open(path, "a") as handle:
            handle.write("{not json\n")
        with pytest.raises(StoreCorruptError) as err:
            store.load()
        assert "line 2" in str(err.value)

    def test_non_object_line_is_corrupt(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(StoreCorruptError):
            RunStore(str(path)).load()

    def test_schema_mismatch_raises_named_error_not_keyerror(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        doc = _record().to_dict()
        doc["schema"] = "repro-runs/0"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(StoreSchemaError):
            RunStore(str(path)).load()

    def test_default_path_under_benchmarks(self):
        assert DEFAULT_STORE_PATH.startswith("benchmarks")


class TestQueries:
    def test_metric_value_counter_and_gauge(self):
        record = _record(cost=2.0)
        assert metric_value(record, "executor.billed_cost") == 2.0
        assert metric_value(record, "bench.gnn.final_loss") == 0.25
        assert metric_value(record, "nope") is None

    def test_metric_names_union(self):
        names = metric_names([_record(), _record()])
        assert "executor.billed_cost" in names
        assert "bench.gnn.final_loss" in names
        assert names == sorted(names)

    def test_metric_series_preserves_store_order(self):
        runs = [_record(rev="a", cost=1.0), _record(rev="b", cost=2.0)]
        series = metric_series(runs, "executor.billed_cost")
        assert [(r.rev, v) for r, v in series] == [("a", 1.0), ("b", 2.0)]

    def test_merged_histogram_sums_counts(self):
        runs = [
            _record(rev="a", hist_values=[1.0, 2.0]),
            _record(rev="b", hist_values=[4.0]),
        ]
        hist = merged_histogram(runs, "stage.seconds")
        assert hist.count == 3
        assert merged_histogram(runs, "absent") is None

    def test_percentiles_from_bins(self):
        runs = [_record(rev="a", hist_values=[1.0, 2.0, 4.0, 8.0, 100.0])]
        hist = merged_histogram(runs, "stage.seconds")
        assert histogram_percentile(hist, 0.0) == pytest.approx(1.0)
        assert histogram_percentile(hist, 100.0) <= 100.0
        p50 = histogram_percentile(hist, 50.0)
        assert 1.0 <= p50 <= 8.0
        with pytest.raises(ValueError):
            histogram_percentile(hist, 101.0)

    def test_percentile_summary_keys(self):
        runs = [_record(hist_values=[1.0, 2.0, 3.0])]
        summary = percentile_summary(runs, "stage.seconds")
        assert set(summary) == {"p50", "p90", "p99"}
        assert percentile_summary(runs, "absent") == {}


class TestEmptyHistogramError:
    def test_percentile_of_empty_histogram_is_named_error(self):
        from repro.obs.store import EmptyHistogramError

        reg = MetricsRegistry()
        reg.histogram("empty")  # registered, never observed
        hist = reg.snapshot().histograms.get("empty")
        if hist is None:
            # Unobserved histograms may be absent from snapshots; build
            # an explicitly empty one via from-dict instead.
            from repro.obs.metrics import HistogramSnapshot

            hist = HistogramSnapshot()
        with pytest.raises(EmptyHistogramError, match="empty histogram"):
            histogram_percentile(hist, 99.0)

    def test_empty_histogram_error_is_a_store_error(self):
        from repro.obs.store import EmptyHistogramError

        assert issubclass(EmptyHistogramError, StoreError)

    def test_percentile_summary_tolerates_empty(self):
        from repro.obs.metrics import HistogramSnapshot

        record = _record(hist_values=())
        record.metrics.setdefault("histograms", {})
        assert percentile_summary([record], "stage.seconds") == {}
