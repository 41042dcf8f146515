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
* :func:`diff_profiles` aligns two profiles frame-by-frame and ranks
  regressions/improvements by self-time delta — the attribution layer
  ``repro profile --diff`` reports through.

For code that carries no spans at all there is a fallback
:class:`SamplingProfiler` built on ``sys.setprofile``: it shadows the
interpreter's call stack and accumulates per-path self time for every
Python call.  It is wall-clock only (the interpreter drives the event
stream, so tick-clock byte-stability is not promised) and is strictly an
exploration tool; the span profiler is the contractual one.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .spans import Span

__all__ = [
    "PROFILE_SCHEMA",
    "FUSED_TAGS",
    "FrameStat",
    "Profile",
    "FrameDelta",
    "ProfileDiff",
    "build_profile",
    "diff_profiles",
    "load_profile",
    "parse_folded",
    "render_profile",
    "render_diff",
    "render_flame_html",
    "SamplingProfiler",
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

    @classmethod
    def from_dict(cls, doc: dict) -> "Profile":
        if doc.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"profile schema mismatch: expected {PROFILE_SCHEMA!r}, "
                f"got {doc.get('schema')!r}"
            )
        profile = cls(
            deterministic=bool(doc.get("deterministic", False)),
            meta=dict(doc.get("meta", {})),
        )
        for path, raw in doc.get("frames", {}).items():
            profile.frames[path] = FrameStat(
                path=path,
                calls=int(raw.get("calls", 0)),
                total=float(raw.get("total", 0.0)),
                self_time=float(raw.get("self", 0.0)),
                counters=dict(raw.get("counters", {})),
            )
        return profile


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


def parse_folded(text: str) -> Profile:
    """Parse collapsed-stack text back into a :class:`Profile`.

    Only self time survives the folded format (``total`` mirrors it and
    call counts are lost — recorded as 0), which is exactly enough for
    :func:`diff_profiles`.
    """
    profile = Profile()
    for number, raw in enumerate(text.splitlines(), start=1):
        raw = raw.strip()
        if not raw:
            continue
        stack, _, value = raw.rpartition(" ")
        if not stack:
            raise ValueError(f"folded line {number} has no stack: {raw!r}")
        try:
            micros = int(value)
        except ValueError:
            raise ValueError(
                f"folded line {number} has a non-integer value: {value!r}"
            ) from None
        path = stack.replace(";", "/")
        frame = profile.frames.get(path)
        if frame is None:
            frame = profile.frames[path] = FrameStat(path=path)
        seconds = micros / 1e6
        frame.self_time += seconds
        frame.total += seconds
    return profile


def load_profile(path: str) -> Profile:
    """Load a profile from a ``repro-profile/1`` JSON or folded file."""
    import json

    with open(path) as handle:
        text = handle.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return Profile.from_dict(json.loads(text))
    return parse_folded(text)


# ----------------------------------------------------------------------
# Diffing: frame-by-frame alignment and regression attribution
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FrameDelta:
    """One aligned frame's self-time change between two profiles."""

    path: str
    base_self: float
    cur_self: float
    base_calls: int
    cur_calls: int

    @property
    def delta(self) -> float:
        return self.cur_self - self.base_self

    @property
    def percent(self) -> float:
        """Delta as a percentage of the baseline (inf for a 0 baseline)."""
        if self.base_self > 0.0:
            return 100.0 * self.delta / self.base_self
        return float("inf") if self.delta > 0 else 0.0


@dataclass
class ProfileDiff:
    """Aligned diff of two profiles, ranked by |self-time delta|."""

    regressions: List[FrameDelta] = field(default_factory=list)
    improvements: List[FrameDelta] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    removed: List[str] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        """No deltas beyond the guards and no frame set drift."""
        return not (
            self.regressions or self.improvements or self.added or self.removed
        )

    @property
    def top_regression(self) -> Optional[FrameDelta]:
        return self.regressions[0] if self.regressions else None


def diff_profiles(
    baseline: Profile,
    current: Profile,
    tolerance_pct: float = 0.0,
    abs_guard_seconds: float = 0.0,
) -> ProfileDiff:
    """Align ``current`` against ``baseline`` frame-by-frame.

    A frame counts as regressed (or improved) only when its self-time
    delta clears *both* guards: more than ``tolerance_pct`` percent of
    the baseline value and more than ``abs_guard_seconds`` in absolute
    terms.  With both guards at 0 (the deterministic tick-clock case)
    any non-zero delta is reported, so two byte-identical profiles diff
    to exactly nothing.
    """
    if tolerance_pct < 0 or abs_guard_seconds < 0:
        raise ValueError("tolerance_pct and abs_guard_seconds must be >= 0")
    diff = ProfileDiff()
    for path in sorted(set(baseline.frames) | set(current.frames)):
        base = baseline.frames.get(path)
        cur = current.frames.get(path)
        if base is None:
            diff.added.append(path)
            continue
        if cur is None:
            diff.removed.append(path)
            continue
        delta = FrameDelta(
            path=path,
            base_self=base.self_time,
            cur_self=cur.self_time,
            base_calls=base.calls,
            cur_calls=cur.calls,
        )
        magnitude = abs(delta.delta)
        if magnitude <= abs_guard_seconds:
            continue
        if magnitude <= base.self_time * tolerance_pct / 100.0:
            continue
        if delta.delta > 0:
            diff.regressions.append(delta)
        else:
            diff.improvements.append(delta)
    diff.regressions.sort(key=lambda d: (-d.delta, d.path))
    diff.improvements.sort(key=lambda d: (d.delta, d.path))
    return diff


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


def render_diff(diff: ProfileDiff, top: int = 10) -> str:
    """Deterministic table of ranked regressions and improvements."""
    if diff.empty:
        return "profile diff: no self-time deltas beyond the guards"
    lines: List[str] = []
    if diff.regressions:
        lines.append(f"regressions ({len(diff.regressions)}):")
        lines.append(
            f"  {'delta':>12} {'base':>12} {'current':>12} {'pct':>8}  frame"
        )
        for d in diff.regressions[:top]:
            pct = "new" if d.base_self <= 0 else f"{d.percent:+.1f}%"
            lines.append(
                f"  {'+' + _format_seconds(d.delta):>12} "
                f"{_format_seconds(d.base_self):>12} "
                f"{_format_seconds(d.cur_self):>12} {pct:>8}  {d.path}"
            )
    if diff.improvements:
        lines.append(f"improvements ({len(diff.improvements)}):")
        for d in diff.improvements[:top]:
            lines.append(
                f"  {'-' + _format_seconds(-d.delta):>12} "
                f"{_format_seconds(d.base_self):>12} "
                f"{_format_seconds(d.cur_self):>12} "
                f"{d.percent:>+7.1f}%  {d.path}"
            )
    for label, paths in (("added", diff.added), ("removed", diff.removed)):
        if paths:
            lines.append(f"{label} frames ({len(paths)}):")
            lines.extend(f"  {p}" for p in paths[:top])
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


# ----------------------------------------------------------------------
# sys.setprofile fallback for un-instrumented code
# ----------------------------------------------------------------------
class SamplingProfiler:
    """Shadow-stack profiler over the interpreter's call events.

    Tracks every Python ``call``/``return`` seen by ``sys.setprofile``
    while the context is active and accumulates per-stack-path self
    time, exactly like the span profiler but at function granularity.
    Frames are named ``file.py:function``.  C-function events are
    ignored (they are leaves whose cost lands in their caller's self
    time, the convention ``cProfile``'s callers view uses too).

    Wall-clock only: event ordering is interpreter-driven, so this mode
    does not promise byte-identical output.  Use spans for contracts.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        self.profile = Profile(meta={"mode": "sampling"})
        # Shadow stack entries: [path, start, child_time].
        self._stack: List[List[object]] = []
        self._previous: Optional[Callable] = None

    def _frame_name(self, frame) -> str:
        code = frame.f_code
        return f"{os.path.basename(code.co_filename)}:{code.co_name}"

    def _event(self, frame, event: str, arg) -> None:
        if event == "call":
            name = self._frame_name(frame)
            parent = self._stack[-1][0] if self._stack else ""
            path = f"{parent}/{name}" if parent else name
            self._stack.append([path, self.clock(), 0.0])
        elif event == "return" and self._stack:
            path, start, child_time = self._stack.pop()
            duration = self.clock() - start
            stat = self.profile.frames.get(path)
            if stat is None:
                stat = self.profile.frames[path] = FrameStat(path=path)
            stat.calls += 1
            stat.total += duration
            stat.self_time += max(0.0, duration - child_time)
            if self._stack:
                self._stack[-1][2] += duration

    def __enter__(self) -> "SamplingProfiler":
        self._previous = sys.getprofile()
        sys.setprofile(self._event)
        return self

    def __exit__(self, *exc) -> bool:
        sys.setprofile(self._previous)
        # Frames still open (callers of __enter__) never saw their call
        # event complete inside the window; drop them.
        self._stack.clear()
        return False
