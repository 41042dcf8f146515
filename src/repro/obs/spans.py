"""Hierarchical wall-clock spans with a thread-local span stack.

A :class:`Span` is one timed region of work; spans opened while another
span is active on the same thread become its children, so a run of the
flow/executor/trainer produces a tree.  Three properties make the spans
usable as *test fixtures* and not just as profiling output:

* **Monotonic timing** — the default clock is ``time.perf_counter``,
  never the wall clock, so durations are immune to NTP steps.
* **Deterministic mode** — ``Tracer(deterministic=True)`` swaps the
  clock for a counting tick clock (1.0 per call) and span IDs are always
  allocation-counter based, so the same seeded workload produces a
  byte-identical trace; the golden-trace tests rely on this.
* **Zero-cost when disabled** — a disabled tracer hands out a shared
  no-op context manager, so instrumented hot paths (the executor's
  Monte-Carlo loops, the tier-1 suite) pay one attribute check per span.

:func:`get_tracer` reads the ambient tracer from a
:class:`contextvars.ContextVar` whose default is *disabled*;
:func:`repro.obs.scoped` sets it for a ``with`` block, so ``repro
trace`` / ``repro profile``, the tests and each service job install
their own tracer without touching any other thread's or task's.
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "TickClock",
    "NULL_SPAN",
    "get_tracer",
    "mint_trace_id",
    "traced",
    "well_nested_violations",
]


def mint_trace_id(component: str, seed: int, index: int = 0) -> str:
    """Deterministic 16-hex-digit trace id, never wall-clock derived.

    Uses the repo-wide crc32 stream construction (two independent
    streams over the ``component:seed:index`` triple), so the same
    seeded workload mints byte-identical trace ids on every run.
    """
    hi = zlib.crc32(f"trace:{component}:{seed}:{index}".encode())
    lo = zlib.crc32(f"trace:{index}:{seed}:{component}".encode())
    return f"{hi:08x}{lo:08x}"


@dataclass(frozen=True)
class SpanEvent:
    """A zero-duration instant attached to a span (fault, retry, ...)."""

    name: str
    time: float
    tags: Dict[str, object] = field(default_factory=dict)


@dataclass
class Span:
    """One timed region; children are linked by ``parent_id``."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    thread: str
    tags: Dict[str, object] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)
    end: Optional[float] = None
    #: End-to-end trace this span belongs to (inherited from the parent
    #: span or the tracer's active :meth:`Tracer.trace` binding).
    trace_id: Optional[str] = None
    #: The owning tracer's clock, used to default event timestamps.
    #: Excluded from repr/compare so traces stay value-comparable.
    clock: Optional[Callable[[], float]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def uid(self) -> str:
        """Globally meaningful span id: crc32 of ``trace_id:span_id``.

        Within one tracer ``span_id`` (the allocation counter) is already
        deterministic; the uid folds the trace id in so spans stitched
        from different traces stay distinguishable after export.
        """
        if self.trace_id is None:
            return f"{self.span_id:08x}"
        return f"{zlib.crc32(f'{self.trace_id}:{self.span_id}'.encode()):08x}"

    @property
    def duration(self) -> float:
        """Seconds between start and end (0 while the span is open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def set_tag(self, key: str, value) -> "Span":
        self.tags[key] = value
        return self

    def set_tags(self, **tags) -> "Span":
        self.tags.update(tags)
        return self

    def add_event(
        self, name: str, time: Optional[float] = None, **tags
    ) -> SpanEvent:
        """Attach an instant; ``time`` defaults to the tracer clock's now.

        Detached spans (built by hand, no tracer clock) fall back to the
        span's own start so the event still lands inside the interval.
        """
        if time is None:
            time = self.clock() if self.clock is not None else self.start
        event = SpanEvent(name=name, time=time, tags=tags)
        self.events.append(event)
        return event


class _NullSpan:
    """Shared do-nothing span handed out by disabled tracers."""

    __slots__ = ()
    span_id = -1
    parent_id = None
    trace_id = None
    name = ""
    tags: Dict[str, object] = {}
    events: List[SpanEvent] = []
    finished = True
    duration = 0.0

    def set_tag(self, key: str, value) -> "_NullSpan":
        return self

    def set_tags(self, **tags) -> "_NullSpan":
        return self

    def add_event(self, name: str, time: Optional[float] = None, **tags) -> None:
        return None


#: The span a disabled tracer yields — all mutators are no-ops.
NULL_SPAN = _NullSpan()


class _NullContext:
    """Reusable no-op context manager (one allocation per process)."""

    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class TickClock:
    """Counting clock for deterministic traces: 0.0, 1.0, 2.0, ..."""

    def __init__(self, step: float = 1.0):
        self.step = step
        self._ticks = 0

    def __call__(self) -> float:
        value = self._ticks * self.step
        self._ticks += 1
        return value


class Tracer:
    """Collects spans; one thread-local stack defines parenthood.

    Parameters
    ----------
    clock:
        Zero-argument callable returning seconds.  Defaults to
        ``time.perf_counter`` (monotonic), or a fresh :class:`TickClock`
        when ``deterministic=True``.  An explicitly passed clock is
        always honored — the service layer shares one tick clock between
        its job state machine and its tracer so history edges and span
        boundaries interleave on a single timeline.
    deterministic:
        Use a counting tick clock so timestamps (and therefore the whole
        trace) are reproducible byte-for-byte.
    enabled:
        Disabled tracers record nothing and yield :data:`NULL_SPAN`.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        deterministic: bool = False,
        enabled: bool = True,
    ):
        if deterministic and clock is None:
            clock = TickClock()
        self.clock = clock if clock is not None else time.perf_counter
        self.deterministic = deterministic
        self.enabled = enabled
        self.spans: List[Span] = []
        self.orphan_events: List[SpanEvent] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        # Innermost-first snapshot of the open-span stack, captured at the
        # moment an exception started unwinding (see _record_span).  Holds
        # a strong reference to the exception until reset() — the flight
        # recorder reads it while building a crash report.
        self._crash_exc: Optional[BaseException] = None
        self._crash_stack: List[Span] = []

    # -- span stack -------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _trace_stack(self) -> List[str]:
        stack = getattr(self._local, "traces", None)
        if stack is None:
            stack = self._local.traces = []
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # -- trace context ----------------------------------------------------
    @contextmanager
    def trace(self, trace_id: Optional[str]):
        """Bind spans opened on this thread to ``trace_id`` (nestable).

        Spans inherit their trace id from the parent span first, then
        from the innermost active binding, so binding around a job's
        whole execution stitches every component's spans (service,
        planner, executor) into one end-to-end trace.  Passing
        ``None`` (or using a disabled tracer) is a no-op.
        """
        if not self.enabled or trace_id is None:
            yield trace_id
            return
        stack = self._trace_stack()
        stack.append(trace_id)
        try:
            yield trace_id
        finally:
            stack.pop()

    def current_trace_id(self) -> Optional[str]:
        """The innermost trace binding on this thread, if any."""
        stack = self._trace_stack()
        return stack[-1] if stack else None

    def open_stack(self) -> List[Span]:
        """Copy of this thread's open-span stack, outermost first."""
        return list(self._stack())

    def crash_stack(self, exc: Optional[BaseException] = None) -> List[Span]:
        """The open-span stack as it stood when ``exc`` started unwinding.

        Span context managers close (in ``finally``) while an exception
        propagates, so by the time an outer handler runs the stack is
        already empty.  ``_record_span`` snapshots the stack the first
        time it sees a given exception; passing that exception here
        returns the snapshot.  For any other (or no) exception this falls
        back to the live open stack.
        """
        if exc is not None and self._crash_exc is exc:
            return list(self._crash_stack)
        return self.open_stack()

    # -- recording --------------------------------------------------------
    def span(self, name: str, **tags):
        """Context manager opening a child of the current span."""
        if not self.enabled:
            return _NULL_CONTEXT
        return self._record_span(name, tags)

    @contextmanager
    def _record_span(self, name: str, tags: Dict[str, object]):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent.trace_id is not None:
            trace_id = parent.trace_id
        else:
            trace_id = self.current_trace_id()
        with self._lock:
            span = Span(
                span_id=len(self.spans),
                parent_id=parent.span_id if parent is not None else None,
                name=name,
                start=self.clock(),
                thread=threading.current_thread().name,
                tags=dict(tags),
                trace_id=trace_id,
                clock=self.clock,
            )
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            # First span to see this exception is the innermost one, so
            # the stack snapshot below is the full crash stack.
            if self._crash_exc is not exc:
                self._crash_exc = exc
                self._crash_stack = list(stack)
            raise
        finally:
            stack.pop()
            with self._lock:
                span.end = self.clock()

    def event(self, name: str, **tags) -> None:
        """Record an instant on the current span (orphaned if none open)."""
        if not self.enabled:
            return
        with self._lock:
            now = self.clock()
        current = self.current()
        if current is not None:
            current.add_event(name, now, **tags)
        else:
            self.orphan_events.append(SpanEvent(name=name, time=now, tags=tags))

    # -- inspection -------------------------------------------------------
    def roots(self) -> List[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def reset(self) -> None:
        """Drop all recorded spans (open spans on other threads included)."""
        with self._lock:
            self.spans = []
            self.orphan_events = []
            self._crash_exc = None
            self._crash_stack = []
        self._local = threading.local()


# ----------------------------------------------------------------------
# Ambient tracer (defaults to disabled: instrumentation is free until a
# CLI command, test or service job scopes an enabled one).
# ----------------------------------------------------------------------
TRACER: contextvars.ContextVar[Tracer] = contextvars.ContextVar(
    "repro_tracer", default=Tracer(enabled=False)
)


def get_tracer() -> Tracer:
    """The ambient tracer the instrumented modules report to."""
    return TRACER.get()


def traced(name: Optional[str] = None, **tags):
    """Decorator: run the function inside a span on the ambient tracer."""

    def decorate(func):
        span_name = name if name is not None else func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with get_tracer().span(span_name, **tags):
                return func(*args, **kwargs)

        return wrapper

    return decorate


# ----------------------------------------------------------------------
# Invariant checking (shared by the property tests and the obs oracle)
# ----------------------------------------------------------------------
def well_nested_violations(spans: List[Span]) -> List[str]:
    """Check the span-tree timing invariants; [] when they all hold.

    * every finished child's interval lies inside its parent's,
    * siblings on the same thread do not overlap (the per-thread stack
      makes concurrent siblings impossible),
    * parents start no later than their children (IDs allocate in start
      order, so a child's ID exceeds its parent's).
    """
    out: List[str] = []
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if not span.finished:
            out.append(f"span {span.span_id} ({span.name}): never finished")
            continue
        if span.end < span.start:
            out.append(
                f"span {span.span_id} ({span.name}): negative duration "
                f"[{span.start}, {span.end}]"
            )
        for event in span.events:
            if event.time < span.start or event.time > span.end:
                out.append(
                    f"span {span.span_id} ({span.name}): event "
                    f"{event.name!r} at {event.time} outside the span"
                )
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            out.append(
                f"span {span.span_id} ({span.name}): dangling parent id "
                f"{span.parent_id}"
            )
            continue
        if span.span_id <= parent.span_id:
            out.append(
                f"span {span.span_id} ({span.name}): id not after parent "
                f"{parent.span_id}"
            )
        if span.start < parent.start or (
            parent.finished and span.end > parent.end
        ):
            out.append(
                f"span {span.span_id} ({span.name}): interval "
                f"[{span.start}, {span.end}] escapes parent "
                f"{parent.span_id} [{parent.start}, {parent.end}]"
            )
    # Sibling overlap, per (parent, thread).
    groups: Dict[tuple, List[Span]] = {}
    for span in spans:
        if span.finished:
            groups.setdefault((span.parent_id, span.thread), []).append(span)
    for (parent_id, thread), siblings in groups.items():
        siblings.sort(key=lambda s: (s.start, s.span_id))
        for a, b in zip(siblings, siblings[1:]):
            if b.start < a.end:
                out.append(
                    f"siblings {a.span_id} ({a.name}) and {b.span_id} "
                    f"({b.name}) overlap on thread {thread}"
                )
    return out
