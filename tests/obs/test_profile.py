"""Profiler tests: self-time math, folded export, frame table, CLI, crash dumps."""

import pytest

from repro.cli import main
from repro.obs import Tracer, scoped
from repro.obs.log import build_crash_report, Logger
from repro.obs.profile import (
    Profile,
    build_profile,
    render_profile,
)

pytestmark = pytest.mark.obs


def _tick_tracer():
    """root spans 8 ticks, child.a 2, child.b 2 -> root self = 8-4 = 4."""
    tracer = Tracer(deterministic=True)
    with tracer.span("root"):
        with tracer.span("child.a", flops=10, instructions=100):
            pass
        with tracer.span("child.b"):
            pass
        with tracer.span("child.a", flops=5):
            pass
    return tracer


class TestBuildProfile:
    def test_self_time_excludes_direct_children(self):
        profile = build_profile(_tick_tracer().spans)
        root = profile.frames["root"]
        a = profile.frames["root/child.a"]
        b = profile.frames["root/child.b"]
        # Tick clock: every span open/close consumes one tick, so each
        # child lasts exactly 1.0s; root lasts 7.0s (8 clock reads).
        assert a.calls == 2 and a.total == 2.0 and a.self_time == 2.0
        assert b.calls == 1 and b.total == 1.0 and b.self_time == 1.0
        assert root.total == root.self_time + a.total + b.total
        assert profile.total_self == root.total

    def test_leaf_name_property(self):
        profile = build_profile(_tick_tracer().spans)
        assert profile.frames["root/child.a"].name == "child.a"

    def test_unfinished_spans_skipped(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("done"):
            pass
        tracer.spans[0].end = None
        assert build_profile(tracer.spans).frames == {}

    def test_top_ranks_by_self_time_then_path(self):
        profile = build_profile(_tick_tracer().spans)
        assert [f.path for f in profile.top(2)] == ["root", "root/child.a"]

    def test_same_seed_profiles_identical(self):
        one = build_profile(_tick_tracer().spans)
        two = build_profile(_tick_tracer().spans)
        assert one.frames == two.frames
        assert one.to_folded() == two.to_folded()


class TestFoldedFormat:
    def test_folded_lines_sorted_integer_micros(self):
        text = build_profile(_tick_tracer().spans).to_folded()
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "root;child.a 2000000" in lines
        assert text.endswith("\n")

    def test_empty_profile_folds_to_empty_string(self):
        assert Profile().to_folded() == ""

    def test_roundtrip_preserves_self_time(self):
        profile = build_profile(_tick_tracer().spans)
        folded = {}
        for line in profile.to_folded().splitlines():
            stack, _, micros = line.rpartition(" ")
            folded[stack.replace(";", "/")] = int(micros)
        assert folded == {
            path: round(frame.self_time * 1e6)
            for path, frame in profile.frames.items()
        }


class TestRenderProfile:
    def test_table_lists_hottest_frames(self):
        profile = build_profile(_tick_tracer().spans)
        text = render_profile(profile, top=2)
        assert "root" in text and "root/child.a" in text
        assert "root/child.b" not in text
        assert "3 frames" in text


class TestProfileCli:
    def test_execute_workload(self, capsys):
        # `repro trace` prints the self-time table after the span tree.
        code = main(
            [
                "trace", "--workload", "execute", "--design", "ctrl",
                "--scale", "0.2", "--seed", "1", "--profile", "heavy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute/stage.synthesis" in out
        assert "total self time" in out


class TestCrashReportProfile:
    def test_crash_dump_names_hot_frames(self):
        tracer = _tick_tracer()
        logger = Logger(deterministic=True)
        with scoped(tracer=tracer, log=logger):
            doc = build_crash_report(
                "unit", 0, exc=RuntimeError("x"),
                logger=logger, tracer=tracer,
            )
        assert doc["profile"][0]["path"] == "root"
        assert {"path", "calls", "self"} == set(doc["profile"][0])
        assert len(doc["profile"]) <= 10
