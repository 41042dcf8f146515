"""Tests for the global router."""

import numpy as np
import pytest

from repro.eda.job import EDAStage
from repro.eda.placement import Placement, PlacementEngine
from repro.eda.routing import GlobalRouter, RouteSegment, _interleave
from repro.eda.synthesis import SynthesisEngine
from repro.netlist import benchmarks
from repro.netlist.cells import nangate_lite
from repro.netlist.netlist import Netlist
from repro.perf import make_instrument


@pytest.fixture(scope="module")
def placement():
    net = SynthesisEngine().run(benchmarks.build("router", 0.8)).artifact
    return PlacementEngine(seed=1).run(net).artifact


@pytest.fixture(scope="module")
def routed(placement):
    return GlobalRouter(seed=1).run(placement)


class TestPaths:
    def test_paths_connect_endpoints(self, routed):
        for seg in routed.artifact.segments:
            if not seg.path:
                continue
            assert seg.path[0] == seg.source
            assert seg.path[-1] == seg.target

    def test_paths_are_contiguous_manhattan(self, routed):
        for seg in routed.artifact.segments:
            for a, b in zip(seg.path, seg.path[1:]):
                assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1, seg.net

    def test_paths_within_grid(self, routed):
        r = routed.artifact
        for seg in r.segments:
            for x, y in seg.path:
                assert 0 <= x < r.grid_width
                assert 0 <= y < r.grid_height

    def test_most_segments_routed(self, routed):
        r = routed.artifact
        routed_count = sum(1 for s in r.segments if s.path)
        assert routed_count >= 0.95 * len(r.segments)

    def test_wirelength_at_least_manhattan(self, routed):
        for seg in routed.artifact.segments:
            if seg.path:
                manhattan = abs(seg.source[0] - seg.target[0]) + abs(
                    seg.source[1] - seg.target[1]
                )
                assert seg.wirelength >= manhattan


class TestEngineBehavior:
    def test_stage_and_metrics(self, routed):
        assert routed.stage == EDAStage.ROUTING
        m = routed.metrics
        assert m["segments"] > 0
        assert m["expansions"] > 0
        assert m["wirelength"] > 0
        assert m["iterations"] >= 1

    def test_runtime_decreases_with_vcpus(self, routed):
        rts = [routed.runtime(k) for k in (1, 2, 4, 8)]
        assert rts[0] > rts[1] > rts[2] >= rts[3] * 0.95

    def test_determinism(self, placement):
        r1 = GlobalRouter(seed=3).run(placement)
        r2 = GlobalRouter(seed=3).run(placement)
        assert r1.metrics == r2.metrics

    def test_capacity_override(self, placement):
        tight = GlobalRouter(capacity=1, max_iterations=2).run(placement)
        loose = GlobalRouter(capacity=64, max_iterations=2).run(placement)
        assert loose.metrics["overflow"] <= tight.metrics["overflow"]

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            GlobalRouter(capacity=0)

    def test_counters_routing_signature(self, placement):
        """Routing: high branch misses, no FP (paper Figure 2)."""
        inst = make_instrument(1, sample_rate=2)
        result = GlobalRouter(seed=1).run(placement, instrument=inst)
        c = result.counters
        assert c.branch_miss_rate > 0.04
        assert c.fp_avx_ops == 0
        assert c.mem_accesses > 0


class TestScalingShape:
    def test_larger_designs_scale_better(self):
        """The Figure 3 property: speedup grows with design size."""
        syn = SynthesisEngine()
        pl = PlacementEngine(seed=0)
        rt = GlobalRouter(seed=0)
        small = rt.run(pl.run(syn.run(benchmarks.build("dynamic_node", 1.0)).artifact).artifact)
        large = rt.run(pl.run(syn.run(benchmarks.build("sparc_core", 1.0)).artifact).artifact)
        assert large.profile.speedup(8) > small.profile.speedup(8) + 0.5

    def test_small_design_plateaus(self):
        """Small designs: speedup at 8 vCPUs is about the same as at 4."""
        syn = SynthesisEngine()
        pl = PlacementEngine(seed=0)
        rt = GlobalRouter(seed=0)
        res = rt.run(pl.run(syn.run(benchmarks.build("dynamic_node", 1.0)).artifact).artifact)
        s4 = res.profile.speedup(4)
        s8 = res.profile.speedup(8)
        assert abs(s8 - s4) < 0.5


class TestInterleave:
    def test_single_way_concatenates(self):
        streams = [[1, 2], [3, 4]]
        assert _interleave(streams, 1) == [1, 2, 3, 4]

    def test_multi_way_mixes(self):
        streams = [list(range(0, 64)), list(range(100, 164))]
        mixed = _interleave(streams, 2)
        assert sorted(mixed) == sorted(streams[0] + streams[1])
        # the first chunk of stream 2 appears before the tail of stream 1
        assert mixed.index(100) < mixed.index(63)

    def test_empty_streams(self):
        assert _interleave([], 4) == []


class TestRipUpIdentity:
    """Rip-up bookkeeping tracks segments by identity, not by value."""

    @pytest.fixture(scope="class")
    def twin_sinks(self):
        """A net whose two sinks share a gcell, so its two segments have
        the same source and target (and, in the first iteration, the same
        path), on a row crowded enough that rip-up must run."""
        net = Netlist("twin_sinks", nangate_lite())
        net.add_input_port("a")
        positions = {}
        for i in range(6):
            net.add_instance(f"d{i}", "INV_X1", {"A": "a", "Y": f"n{i}"})
            net.add_instance(f"s{i}", "INV_X1", {"A": f"n{i}", "Y": f"o{i}"})
            positions[f"d{i}"] = (0.5, 0.5 + 0.1 * i)
            positions[f"s{i}"] = (6.5, 0.5 + 0.1 * i)
        net.add_instance("twin", "INV_X1", {"A": "n0", "Y": "t"})
        positions["twin"] = (6.9, 0.9)
        placement = Placement(
            netlist=net,
            positions=positions,
            port_positions={"a": (0.0, 0.0)},
            die_width=9.0,
            die_height=9.0,
        )
        # A zero margin confines the first iteration to the crowded row.
        return GlobalRouter(capacity=2, bbox_margin=0, max_iterations=4).run(placement)

    def test_rip_up_removes_the_ripped_object(self, twin_sinks):
        twins = [s for s in twin_sinks.artifact.segments if s.net == "n0"]
        assert len(twins) == 2
        a, b = twins
        assert (a.source, a.target) == (b.source, b.target)
        # A field-for-field twin routed first: removing ``a`` from an
        # edge's user list must leave the twin, not remove it instead.
        twin = RouteSegment(
            net=a.net, source=a.source, target=a.target, path=list(a.path)
        )
        users = [twin, a]
        users.remove(a)
        assert len(users) == 1 and users[0] is twin

    def test_ripped_usage_matches_final_paths(self, twin_sinks):
        assert twin_sinks.metrics["ripups"] > 0
        r = twin_sinks.artifact
        usage = {}
        for seg in r.segments:
            for a, b in zip(seg.path, seg.path[1:]):
                edge = (min(a, b), max(a, b))
                usage[edge] = usage.get(edge, 0) + 1
        assert r.overflow == sum(max(0, u - 2) for u in usage.values())
