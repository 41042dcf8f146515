"""Deterministic profiler: per-frame self-time over the span tree.

A wall-clock total can say *that* a workload regressed; this module
says *which frame* regressed.  Three layers:

* :func:`build_profile` derives, from a finished span list, one
  :class:`FrameStat` per call-stack path — inclusive time, **self time**
  (span duration minus the duration of its direct children) and call
  count.  Under the tracer's tick-clock mode every quantity is an exact
  integer, so two same-seed runs produce byte-identical profiles; under
  the wall clock the same code paths yield real timings.
* :meth:`Profile.to_folded` emits Brendan-Gregg collapsed-stack text
  (``root;child;leaf <self-microseconds>``, sorted — pipe into any
  flamegraph tool); ``repro trace --folded`` writes it.
* :func:`render_profile` prints the hottest frames as a flat table.

Timing regressions are gated by ``benchmarks/perf`` alone; for code
that carries no spans, ``python -m cProfile -s tottime -m repro ...``
is the function-level fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .spans import Span

__all__ = [
    "FrameStat",
    "Profile",
    "build_profile",
    "render_profile",
]


@dataclass
class FrameStat:
    """One call-stack path's aggregate: where its time actually went.

    ``path`` joins span names with ``/``, root first; ``total`` is
    inclusive seconds, ``self_time`` excludes time spent in child
    spans.
    """

    path: str
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0

    @property
    def name(self) -> str:
        """The leaf frame name (last path component)."""
        return self.path.rsplit("/", 1)[-1]


@dataclass
class Profile:
    """A set of frames keyed by stack path."""

    frames: Dict[str, FrameStat] = field(default_factory=dict)

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


def build_profile(spans: Sequence[Span]) -> Profile:
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

    profile = Profile()
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
