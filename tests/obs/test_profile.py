"""Profiler tests: self-time math, folded/flame/JSON exports, CLI."""

import json

import pytest

from repro.cli import main
from repro.obs import Tracer, scoped
from repro.obs.log import build_crash_report, Logger
from repro.obs.profile import (
    FUSED_TAGS,
    PROFILE_SCHEMA,
    FrameStat,
    Profile,
    build_profile,
    render_flame_html,
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
        profile = build_profile(_tick_tracer().spans, deterministic=True)
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

    def test_counter_tags_fused_and_summed(self):
        profile = build_profile(_tick_tracer().spans)
        counters = profile.frames["root/child.a"].counters
        assert counters["flops"] == 15.0
        assert counters["instructions"] == 100.0
        assert "branches" not in counters

    def test_bool_tags_not_fused(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("x", flops=True):
            pass
        profile = build_profile(tracer.spans)
        assert profile.frames["x"].counters == {}
        assert set(FUSED_TAGS) == {
            "instructions", "branches", "mem_accesses", "flops"
        }

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
        one = build_profile(_tick_tracer().spans, deterministic=True)
        two = build_profile(_tick_tracer().spans, deterministic=True)
        assert one.to_dict() == two.to_dict()
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


class TestJsonDocument:
    def test_schema_and_roundtrip(self):
        profile = build_profile(
            _tick_tracer().spans, deterministic=True, meta={"seed": 0}
        )
        doc = profile.to_dict()
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["deterministic"] is True
        assert doc["meta"] == {"seed": 0}
        assert json.loads(json.dumps(doc)) == doc
        assert doc["frames"]["root/child.a"] == {
            "calls": 2,
            "total": 2.0,
            "self": 2.0,
            "counters": {"flops": 15.0, "instructions": 100.0},
        }


class TestRenderProfile:
    def test_table_lists_hottest_frames(self):
        profile = build_profile(_tick_tracer().spans)
        text = render_profile(profile, top=2)
        assert "root" in text and "root/child.a" in text
        assert "root/child.b" not in text
        assert "3 frames" in text


class TestFlameHtml:
    def test_self_contained_light_dark(self):
        html = render_flame_html(
            build_profile(_tick_tracer().spans, deterministic=True),
            title="t<est",
        )
        assert html.startswith("<!DOCTYPE html>")
        assert "prefers-color-scheme: dark" in html
        assert "t&lt;est" in html
        assert "child.a" in html and "child.b" in html
        assert "tick clock (deterministic)" in html
        assert "<script" not in html and "http" not in html

    def test_child_widths_are_shares_of_parent(self):
        html = render_flame_html(build_profile(_tick_tracer().spans))
        # root/child.a is 2 of root's 7 inclusive seconds.
        assert f"flex: 0 0 {100.0 * 2.0 / 7.0:.4f}%" in html

    def test_sparse_paths_get_synthetic_parents(self):
        profile = Profile(
            frames={"a/b/c": FrameStat(path="a/b/c", total=1.0, self_time=1.0)}
        )
        html = render_flame_html(profile)
        # "a" and "a;b" carry no frame of their own but must nest "c".
        assert html.count('<div class="frame"') == 3


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


class TestProfileCli:
    def _run(self, tmp_path, tag):
        folded = tmp_path / f"{tag}.folded"
        args = [
            "profile", "--workload", "flow", "--design", "ctrl",
            "--scale", "0.2", "--seed", "0", "--deterministic",
            "--folded", str(folded),
        ]
        assert main(args) == 0
        return folded

    def test_same_seed_folded_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a")
        b = self._run(tmp_path, "b")
        out = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert "flow/stage.synthesis" in out

    def test_html_and_json_exports(self, tmp_path, capsys):
        html = tmp_path / "flame.html"
        doc = tmp_path / "prof.json"
        args = [
            "profile", "--workload", "flow", "--design", "ctrl",
            "--scale", "0.2", "--deterministic",
            "--html", str(html), "--json", str(doc),
        ]
        assert main(args) == 0
        assert "<!DOCTYPE html>" in html.read_text()
        loaded = json.loads(doc.read_text())
        assert loaded["schema"] == PROFILE_SCHEMA
        assert loaded["meta"]["workload"] == "flow"
        assert any("/" in p for p in loaded["frames"])

    def test_execute_workload(self, capsys):
        code = main(
            [
                "profile", "--workload", "execute", "--design", "ctrl",
                "--scale", "0.2", "--seed", "1", "--profile", "heavy",
            ]
        )
        assert code == 0
        assert "execute" in capsys.readouterr().out
