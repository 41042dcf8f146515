"""Unit tests for counters, gauges, log-scale histograms, snapshots."""

import threading

import pytest

from repro.obs import (
    MAX_BIN,
    MIN_BIN,
    ZERO_BIN,
    MetricsRegistry,
    bin_bounds,
    get_metrics,
    histogram_bin,
    merge_snapshots,
    scoped,
)


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")
        c.inc()
        c.inc(2.5)
        assert reg.snapshot().counters == {"hits": 3.5}

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match="only go up"):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("loss").set(0.5)
        reg.gauge("loss").set(0.25)
        assert reg.snapshot().gauges == {"loss": 0.25}

    def test_unwritten_gauge_absent_from_snapshot(self):
        reg = MetricsRegistry()
        reg.gauge("idle")
        assert reg.snapshot().gauges == {}

    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("x")

    def test_reset_clears_everything(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("h").observe(1.0)
        reg.reset()
        snap = reg.snapshot()
        assert snap.counters == {} and snap.histograms == {}


class TestHistogramBins:
    def test_power_of_two_binning(self):
        assert histogram_bin(1.0) == 0
        assert histogram_bin(1.5) == 0
        assert histogram_bin(2.0) == 1
        assert histogram_bin(0.5) == -1
        assert histogram_bin(1000.0) == 9

    def test_nonpositive_goes_to_zero_bin(self):
        assert histogram_bin(0.0) == ZERO_BIN
        assert histogram_bin(-3.0) == ZERO_BIN
        assert histogram_bin(float("nan")) == ZERO_BIN

    def test_clamping(self):
        assert histogram_bin(2.0 ** 100) == MAX_BIN
        assert histogram_bin(2.0 ** -100) == MIN_BIN
        assert histogram_bin(float("inf")) == MAX_BIN

    def test_bin_bounds_contain_values(self):
        for value in (0.01, 0.5, 1.0, 3.7, 1024.0):
            lo, hi = bin_bounds(histogram_bin(value))
            assert lo <= value < hi

    def test_stats_track_min_max_sum(self):
        reg = MetricsRegistry()
        h = reg.histogram("d")
        for v in (4.0, 1.0, 16.0):
            h.observe(v)
        snap = reg.snapshot().histograms["d"]
        assert snap.count == 3
        assert snap.total == 21.0
        assert snap.min == 1.0 and snap.max == 16.0
        assert sum(c for _, c in snap.bins) == 3


class TestSnapshotsAndMerge:
    def test_snapshot_is_point_in_time(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc()
        assert snap.counters == {"c": 1.0}
        assert reg.snapshot().counters == {"c": 2.0}

    def test_snapshot_equality(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("c").inc(2)
            reg.gauge("g").set(7)
            reg.histogram("h").observe(3.0)
            return reg.snapshot()

        assert build() == build()

    def test_merge_matches_sequential_application(self):
        ops_a = [("c", 1.0), ("h", 4.0), ("g", 1.0)]
        ops_b = [("c", 2.0), ("h", 0.25), ("g", 9.0), ("h", 64.0)]

        def apply(reg, ops):
            for name, value in ops:
                if name == "c":
                    reg.counter("count").inc(value)
                elif name == "g":
                    reg.gauge("level").set(value)
                else:
                    reg.histogram("dist").observe(value)

        ra, rb, rboth = (
            MetricsRegistry(),
            MetricsRegistry(),
            MetricsRegistry(),
        )
        apply(ra, ops_a)
        apply(rb, ops_b)
        apply(rboth, ops_a)
        apply(rboth, ops_b)
        merged = merge_snapshots(ra.snapshot(), rb.snapshot())
        assert merged == rboth.snapshot()

    def test_merge_with_disjoint_names(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.counter("a").inc()
        rb.gauge("b").set(2.0)
        rb.histogram("h").observe(1.0)
        merged = merge_snapshots(ra.snapshot(), rb.snapshot())
        assert merged.counters == {"a": 1.0}
        assert merged.gauges == {"b": 2.0}
        assert merged.histograms["h"].count == 1

    def test_to_dict_sorted_and_json_ready(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.histogram("h").observe(2.0)
        doc = reg.snapshot().to_dict()
        assert list(doc["counters"]) == ["a", "b"]
        json.dumps(doc)  # must serialize cleanly


class TestGlobalRegistry:
    def test_scoped_swaps_registry(self):
        fresh = MetricsRegistry()
        with scoped(metrics=fresh):
            get_metrics().counter("inside").inc()
        assert fresh.snapshot().counters == {"inside": 1.0}
        assert "inside" not in get_metrics().snapshot().counters

    def test_scoped_isolates_concurrent_threads(self):
        registries = [MetricsRegistry(), MetricsRegistry()]
        barrier = threading.Barrier(len(registries), timeout=10)

        def worker(own, increments):
            with scoped(metrics=own):
                # Both scopes are open before either thread increments.
                barrier.wait()
                for _ in range(increments):
                    get_metrics().counter("x").inc()
                barrier.wait()

        threads = [
            threading.Thread(target=worker, args=(registry, n))
            for n, registry in enumerate(registries, start=1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert [r.snapshot().counters for r in registries] == [
            {"x": 1.0},
            {"x": 2.0},
        ]


class TestNaNObserve:
    def test_nan_is_counted_but_does_not_poison_moments(self):
        import math

        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(2.0)
        h.observe(float("nan"))
        h.observe(8.0)
        snap = reg.snapshot().histograms["lat"]
        assert snap.count == 3
        assert snap.total == 10.0
        assert snap.min == 2.0 and snap.max == 8.0
        assert not math.isnan(snap.total)

    def test_nan_first_observation_leaves_min_max_unset(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(float("nan"))
        snap = reg.snapshot().histograms["lat"]
        assert snap.count == 1
        assert snap.min is None and snap.max is None and snap.total == 0.0

    def test_nan_lands_in_zero_bin(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(float("nan"))
        snap = reg.snapshot().histograms["lat"]
        assert dict(snap.bins) == {ZERO_BIN: 1}


class TestLabels:
    def test_labeled_name_sorts_keys_canonically(self):
        from repro.obs import labeled_name

        assert (
            labeled_name("jobs", {"region": "east", "priority": "high"})
            == 'jobs{priority="high",region="east"}'
        )

    def test_labeled_name_escapes_values(self):
        from repro.obs import labeled_name, parse_labeled_name

        series = labeled_name("jobs", {"note": 'say "hi"\nnow'})
        base, labels = parse_labeled_name(series)
        assert base == "jobs"
        assert labels == (("note", 'say "hi"\nnow'),)

    def test_bad_label_key_raises_named_error(self):
        from repro.obs import LabelError, labeled_name

        with pytest.raises(LabelError):
            labeled_name("jobs", {"bad-key": "v"})
        with pytest.raises(LabelError):
            labeled_name("jobs{oops", {"region": "east"})

    def test_registry_encodes_labels_into_series(self):
        reg = MetricsRegistry()
        reg.counter("service.jobs", region="east", priority="1").inc(3)
        reg.counter("service.jobs", region="west", priority="1").inc()
        snap = reg.snapshot()
        assert snap.counters == {
            'service.jobs{priority="1",region="east"}': 3.0,
            'service.jobs{priority="1",region="west"}': 1.0,
        }

    def test_same_labels_any_order_is_one_series(self):
        reg = MetricsRegistry()
        a = reg.counter("jobs", region="east", priority="1")
        b = reg.counter("jobs", priority="1", region="east")
        assert a is b

    def test_kind_conflict_across_label_sets_rejected(self):
        reg = MetricsRegistry()
        reg.counter("jobs", region="east")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("jobs", region="west")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("jobs")

    def test_labeled_snapshot_roundtrips_and_merges(self):
        from repro.obs import snapshot_from_dict

        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.histogram("lat", job_kind="execute").observe(4.0)
        rb.histogram("lat", job_kind="execute").observe(16.0)
        rb.histogram("lat", job_kind="flow").observe(1.0)
        merged = merge_snapshots(ra.snapshot(), rb.snapshot())
        roundtrip = snapshot_from_dict(merged.to_dict())
        assert roundtrip == merged
        assert merged.histograms['lat{job_kind="execute"}'].count == 2
        assert merged.histograms['lat{job_kind="flow"}'].count == 1


class TestMergeGaugeSemantics:
    def test_gauge_conflict_is_last_writer_wins(self):
        """merge_snapshots(a, b) takes b's gauge on conflict — the
        documented last-writer-wins contract (non-commutative)."""
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.gauge("depth").set(5.0)
        rb.gauge("depth").set(2.0)
        ab = merge_snapshots(ra.snapshot(), rb.snapshot())
        ba = merge_snapshots(rb.snapshot(), ra.snapshot())
        assert ab.gauges["depth"] == 2.0
        assert ba.gauges["depth"] == 5.0

    def test_counters_and_histograms_merge_commutatively(self):
        ra, rb = MetricsRegistry(), MetricsRegistry()
        ra.counter("n").inc(2)
        rb.counter("n").inc(3)
        ra.histogram("h").observe(1.0)
        rb.histogram("h").observe(2.0)
        ab = merge_snapshots(ra.snapshot(), rb.snapshot())
        ba = merge_snapshots(rb.snapshot(), ra.snapshot())
        assert ab.counters == ba.counters == {"n": 5.0}
        assert ab.histograms["h"] == ba.histograms["h"]
