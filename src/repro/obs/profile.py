"""Deterministic profiler: per-frame self-time over the span tree.

A wall-clock total can say *that* a workload regressed; this module
says *which frame* regressed.  Three layers:

* :func:`build_profile` derives, from a finished span list, one
  :class:`FrameStat` per call-stack path — inclusive time, **self time**
  (span duration minus the duration of its direct children), call count,
  and the fused perf-counter tags (instructions / branches / memory /
  flops) the instrumented engines attach to their spans.  Under the
  tracer's tick-clock mode every quantity is an exact integer, so two
  same-seed runs produce byte-identical profiles; under the wall clock
  the same code paths yield real timings.
* Exports: :meth:`Profile.to_folded` emits Brendan-Gregg collapsed-stack
  text (``root;child;leaf <self-microseconds>``, sorted — pipe into any
  flamegraph tool), :func:`render_flame_html` a self-contained light/dark
  HTML flame view, and :meth:`Profile.to_dict` the ``repro-profile/1``
  JSON document.
* :func:`render_profile` prints the hottest frames as a flat table.

Timing regressions are gated by ``benchmarks/perf`` alone; for code
that carries no spans, ``python -m cProfile -s tottime -m repro ...``
is the function-level fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from .spans import Span

__all__ = [
    "PROFILE_SCHEMA",
    "FUSED_TAGS",
    "FrameStat",
    "Profile",
    "build_profile",
    "render_profile",
    "render_flame_html",
]

#: Schema tag stamped into every exported profile document.
PROFILE_SCHEMA = "repro-profile/1"

#: Span tags fused into frames when present and numeric — the counter
#: deltas the instrumented engines attach via ``Instrument.span_delta``.
FUSED_TAGS = ("instructions", "branches", "mem_accesses", "flops")


@dataclass
class FrameStat:
    """One call-stack path's aggregate: where its time actually went.

    ``path`` joins span names with ``/``, root first; ``total`` is
    inclusive seconds, ``self_time`` excludes time spent in child
    spans.  ``counters`` holds the summed
    :data:`FUSED_TAGS` for spans on this path that carried them.
    """

    path: str
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """The leaf frame name (last path component)."""
        return self.path.rsplit("/", 1)[-1]

    def to_dict(self) -> dict:
        doc = {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_time,
        }
        if self.counters:
            doc["counters"] = {
                k: self.counters[k] for k in sorted(self.counters)
            }
        return doc


@dataclass
class Profile:
    """A set of frames keyed by stack path, plus run metadata."""

    frames: Dict[str, FrameStat] = field(default_factory=dict)
    deterministic: bool = False
    meta: Dict[str, object] = field(default_factory=dict)

    @property
    def total_self(self) -> float:
        return sum(f.self_time for f in self.frames.values())

    def top(self, n: int = 10) -> List[FrameStat]:
        """The ``n`` hottest frames by self time (ties broken by path)."""
        ranked = sorted(
            self.frames.values(), key=lambda f: (-f.self_time, f.path)
        )
        return ranked[:n]

    def to_folded(self) -> str:
        """Brendan-Gregg collapsed stacks: ``a;b;c <self-microseconds>``.

        Values are integer microseconds of *self* time, lines sorted by
        path — under tick-clock mode the output is byte-identical across
        same-seed runs.  Ends with a newline iff non-empty.
        """
        lines = [
            f"{path.replace('/', ';')} {round(stat.self_time * 1e6)}"
            for path, stat in sorted(self.frames.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> dict:
        """The ``repro-profile/1`` JSON document."""
        return {
            "schema": PROFILE_SCHEMA,
            "deterministic": self.deterministic,
            "meta": {k: self.meta[k] for k in sorted(self.meta)},
            "frames": {
                path: self.frames[path].to_dict()
                for path in sorted(self.frames)
            },
        }

def build_profile(
    spans: Sequence[Span],
    deterministic: bool = False,
    meta: Optional[Dict[str, object]] = None,
) -> Profile:
    """Aggregate finished spans into per-stack-path frames.

    Self time is span duration minus the summed duration of the span's
    *direct finished children* — exact under tick-clock mode because
    every open/close consumes one tick.  Repeated paths (per-epoch or
    per-iteration spans) accumulate into one frame.  Unfinished spans
    are skipped entirely: they have no duration and would poison their
    parent's self time.
    """
    by_id = {s.span_id: s for s in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if not span.finished or span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is not None and parent.finished:
            child_time[parent.span_id] = (
                child_time.get(parent.span_id, 0.0) + span.duration
            )

    def stack_path(span: Span) -> str:
        parts = [span.name]
        parent_id = span.parent_id
        while parent_id is not None:
            parent = by_id[parent_id]
            parts.append(parent.name)
            parent_id = parent.parent_id
        return "/".join(reversed(parts))

    profile = Profile(deterministic=deterministic, meta=dict(meta or {}))
    for span in spans:
        if not span.finished:
            continue
        path = stack_path(span)
        frame = profile.frames.get(path)
        if frame is None:
            frame = profile.frames[path] = FrameStat(path=path)
        frame.calls += 1
        frame.total += span.duration
        frame.self_time += max(
            0.0, span.duration - child_time.get(span.span_id, 0.0)
        )
        for tag in FUSED_TAGS:
            value = span.tags.get(tag)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                frame.counters[tag] = frame.counters.get(tag, 0.0) + value
    return profile


# ----------------------------------------------------------------------
# Text rendering
# ----------------------------------------------------------------------
def _format_seconds(seconds: float) -> str:
    return f"{seconds * 1e3:,.3f}ms"


def render_profile(profile: Profile, top: int = 15) -> str:
    """Deterministic flat table of the hottest frames by self time."""
    total = profile.total_self
    lines = [
        f"{'self':>12} {'total':>12} {'calls':>7} {'self%':>6}  frame"
    ]
    for frame in profile.top(top):
        share = 100.0 * frame.self_time / total if total > 0 else 0.0
        lines.append(
            f"{_format_seconds(frame.self_time):>12} "
            f"{_format_seconds(frame.total):>12} "
            f"{frame.calls:>7} {share:>5.1f}%  {frame.path}"
        )
    shown = min(top, len(profile.frames))
    lines.append(
        f"{len(profile.frames)} frames, "
        f"{_format_seconds(total)} total self time "
        f"(top {shown} shown)"
    )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flame view (self-contained HTML, light/dark via prefers-color-scheme)
# ----------------------------------------------------------------------
_FLAME_STYLE = """
:root { color-scheme: light dark; }
.viz-root {
  --surface-1: #fcfcfb; --text-primary: #0b0b0b; --text-secondary: #52514e;
  --border: #e4e3df;
  background: var(--surface-1); color: var(--text-primary);
  font: 13px/1.4 system-ui, sans-serif; margin: 0; padding: 24px;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    --surface-1: #1a1a19; --text-primary: #ffffff;
    --text-secondary: #c3c2b7; --border: #3a3a38;
  }
}
.viz-root h1 { font-size: 18px; margin: 0 0 4px; }
.viz-root .sub { color: var(--text-secondary); margin: 0 0 16px; }
.flame { max-width: 1100px; }
.frame { box-sizing: border-box; }
.frame > .bar {
  overflow: hidden; white-space: nowrap; text-overflow: ellipsis;
  border: 1px solid var(--surface-1); border-radius: 2px;
  padding: 1px 4px; color: #1d1500;
}
.frame > .kids { display: flex; align-items: flex-start; }
"""

#: Warm categorical ramp cycled by depth; dark text stays readable on all.
_FLAME_COLORS = ("#fcbf49", "#f79d65", "#f4a261", "#e9c46a", "#f6bd60")


def _flame_tree(profile: Profile) -> List[dict]:
    """Nest flat paths into root nodes sized by inclusive time.

    A node's inclusive value is its own ``total`` when present, else the
    sum of its children (paths can be sparse when parent spans carried
    no frame of their own).
    """
    roots: List[dict] = []
    nodes: Dict[str, dict] = {}
    for path in sorted(profile.frames):
        frame = profile.frames[path]
        parts = path.split("/")
        parent: Optional[dict] = None
        for depth in range(len(parts)):
            key = "/".join(parts[: depth + 1])
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = {
                    "name": parts[depth],
                    "total": 0.0,
                    "self": 0.0,
                    "calls": 0,
                    "children": [],
                }
                (parent["children"] if parent else roots).append(node)
            parent = node
        parent["total"] += frame.total
        parent["self"] += frame.self_time
        parent["calls"] += frame.calls

    def fill(node: dict) -> float:
        child_sum = sum(fill(c) for c in node["children"])
        node["total"] = max(node["total"], child_sum)
        return node["total"]

    for root in roots:
        fill(root)
    return roots


def _escape(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_flame_html(profile: Profile, title: str = "repro profile") -> str:
    """Self-contained flame view: nested width-proportional bars.

    No JavaScript, no external assets — widths are flex-basis
    percentages of the parent's inclusive time, tooltips are native
    ``title`` attributes, and colors cycle a warm ramp by depth that
    reads in both light and dark mode.
    """
    roots = _flame_tree(profile)
    grand_total = sum(r["total"] for r in roots) or 1.0

    def node_html(node: dict, depth: int, parent_total: float) -> str:
        share = 100.0 * node["total"] / parent_total if parent_total else 0.0
        color = _FLAME_COLORS[depth % len(_FLAME_COLORS)]
        tip = (
            f"{node['name']}: total {node['total'] * 1e3:.3f}ms, "
            f"self {node['self'] * 1e3:.3f}ms, calls {node['calls']}"
        )
        kids = "".join(
            node_html(child, depth + 1, node["total"])
            for child in node["children"]
        )
        return (
            f'<div class="frame" style="flex: 0 0 {share:.4f}%; '
            f'max-width: {share:.4f}%;" title="{_escape(tip)}">'
            f'<div class="bar" style="background: {color};">'
            f"{_escape(node['name'])}</div>"
            + (f'<div class="kids">{kids}</div>' if kids else "")
            + "</div>"
        )

    body = "".join(node_html(root, 0, grand_total) for root in roots)
    clock = "tick clock (deterministic)" if profile.deterministic else "wall clock"
    return "\n".join(
        [
            "<!DOCTYPE html>",
            '<html><head><meta charset="utf-8">',
            f"<title>{_escape(title)}</title>",
            f"<style>{_FLAME_STYLE}</style>",
            '</head><body class="viz-root">',
            f"<h1>{_escape(title)}</h1>",
            f'<p class="sub">{len(profile.frames)} frames, '
            f"{profile.total_self * 1e3:.3f}ms self time, {clock}</p>",
            f'<div class="flame" style="display:flex;">{body}</div>',
            "</body></html>",
        ]
    )
