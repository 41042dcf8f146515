"""Structured, span-correlated logging with a bounded flight recorder.

The third leg of ``repro.obs``: spans say *where time went*, metrics say
*how much happened*, and log records say *what happened, in order*.  A
:class:`LogRecord` carries a level, a message, free-form key/value
fields, and the id of the span that was open when it was emitted, so a
record stream can be joined back onto the trace.

The :class:`Logger` is a **flight recorder**: records land in a bounded
ring buffer (``collections.deque(maxlen=capacity)``), so a long run
keeps only the most recent window — exactly the records that explain a
crash.  On any unhandled exception inside :func:`crash_scope` (the plan
executor, the fuzz driver, and GCN training all run inside one) the
recorder's tail, the open-span stack at the moment of the raise, and a
metric snapshot are dumped to a replayable ``repro-crash/1`` JSON
document whose path is printed next to the failing seed.

Determinism contract (mirrors the tracer's): ``Logger(deterministic=
True)`` stamps records with its own counting :class:`TickClock` —
*separate* from the tracer's, so logging never perturbs golden traces —
and crash documents are written with sorted keys, so two runs of the
same seeded workload produce byte-identical dumps.

Like the tracer, the ambient logger (a :class:`contextvars.ContextVar`
that :func:`repro.obs.scoped` sets) defaults to **disabled**:
instrumented hot paths pay one attribute check per call, and
:func:`crash_scope` writes nothing unless a run opted into recording.
"""

from __future__ import annotations

import contextvars
import json
import os
import sys
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from .metrics import MetricsRegistry, get_metrics
from .spans import Span, TickClock, Tracer, get_tracer

__all__ = [
    "CRASH_SCHEMA",
    "LEVELS",
    "LogRecord",
    "Logger",
    "get_logger",
    "default_crash_dir",
    "build_crash_report",
    "write_crash_report",
    "crash_dump_path",
    "crash_scope",
]

#: Schema tag stamped into every crash-report document.
CRASH_SCHEMA = "repro-crash/1"

#: Level names in severity order; numeric thresholds for filtering.
LEVELS: Dict[str, int] = {"debug": 10, "info": 20, "warn": 30, "error": 40}


@dataclass(frozen=True)
class LogRecord:
    """One structured record: level, message, fields, active span."""

    seq: int
    time: float
    level: str
    message: str
    span_id: Optional[int]
    fields: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """Sorted-field dict for JSON export (deterministic bytes)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "level": self.level,
            "message": self.message,
            "span_id": self.span_id,
            "fields": {k: self.fields[k] for k in sorted(self.fields)},
        }


class Logger:
    """Bounded ring-buffer flight recorder for structured records.

    Parameters
    ----------
    capacity:
        Ring-buffer size; older records fall off the front.
    clock:
        Zero-argument callable returning seconds; defaults to the same
        monotonic clock the tracer uses.  Ignored when
        ``deterministic=True``.
    deterministic:
        Stamp records with a private :class:`TickClock` (0.0, 1.0, ...)
        so the record stream is byte-stable for a seeded workload.
    enabled:
        Disabled loggers record nothing (one attribute check per call).
    level:
        Minimum level recorded (``"debug"`` records everything).
    """

    def __init__(
        self,
        capacity: int = 256,
        clock: Optional[Callable[[], float]] = None,
        deterministic: bool = False,
        enabled: bool = True,
        level: str = "debug",
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if level not in LEVELS:
            raise ValueError(
                f"unknown level {level!r}; known: {', '.join(LEVELS)}"
            )
        if deterministic:
            clock = TickClock()
        if clock is None:
            import time

            clock = time.perf_counter
        self.clock = clock
        self.deterministic = deterministic
        self.enabled = enabled
        self.capacity = capacity
        self.threshold = LEVELS[level]
        self.records: Deque[LogRecord] = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()

    def log(
        self, level: str, message: str, **fields
    ) -> Optional[LogRecord]:
        """Record one entry; returns it (or ``None`` when filtered)."""
        if not self.enabled or LEVELS.get(level, 0) < self.threshold:
            return None
        span = get_tracer().current()
        with self._lock:
            record = LogRecord(
                seq=self._seq,
                time=self.clock(),
                level=level,
                message=message,
                span_id=span.span_id if span is not None else None,
                fields=fields,
            )
            self._seq += 1
            self.records.append(record)
        return record

    def debug(self, message: str, **fields) -> Optional[LogRecord]:
        return self.log("debug", message, **fields)

    def info(self, message: str, **fields) -> Optional[LogRecord]:
        return self.log("info", message, **fields)

    def warn(self, message: str, **fields) -> Optional[LogRecord]:
        return self.log("warn", message, **fields)

    def error(self, message: str, **fields) -> Optional[LogRecord]:
        return self.log("error", message, **fields)

    def tail(self, n: Optional[int] = None) -> List[LogRecord]:
        """The most recent ``n`` records, oldest first (all by default)."""
        with self._lock:
            records = list(self.records)
        return records if n is None else records[-n:]

    def reset(self) -> None:
        """Drop all records and restart the sequence counter."""
        with self._lock:
            self.records.clear()
            self._seq = 0


# ----------------------------------------------------------------------
# Ambient logger (defaults to disabled, like the tracer).
# ----------------------------------------------------------------------
LOGGER: contextvars.ContextVar[Logger] = contextvars.ContextVar(
    "repro_logger", default=Logger(enabled=False)
)


def get_logger() -> Logger:
    """The ambient logger the instrumented modules report to."""
    return LOGGER.get()


# ----------------------------------------------------------------------
# Crash reports
# ----------------------------------------------------------------------
def default_crash_dir() -> str:
    """Where crash dumps land: ``$REPRO_CRASH_DIR`` or benchmarks/runs."""
    return os.environ.get(
        "REPRO_CRASH_DIR", os.path.join("benchmarks", "runs", "crashes")
    )


def _span_summary(span: Span) -> dict:
    """Deterministic one-node summary of an open span."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "start": span.start,
        "thread": span.thread,
        "tags": {k: span.tags[k] for k in sorted(span.tags)},
    }


def build_crash_report(
    component: str,
    seed: int,
    exc: Optional[BaseException] = None,
    logger: Optional[Logger] = None,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> dict:
    """Assemble a ``repro-crash/1`` document from the ambient obs state.

    ``records`` is the flight recorder's tail, ``open_spans`` the span
    stack captured when ``exc`` started unwinding (outermost first),
    ``metrics`` a snapshot of the registry at dump time, and ``profile``
    the top-10 self-time frames over the spans that had finished when
    the run died — *where time was going* when it crashed.  Exception
    tracebacks are deliberately excluded — type and message only — so
    dumps from identical seeded runs are byte-identical.
    """
    from .profile import build_profile

    logger = logger if logger is not None else get_logger()
    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    profile = build_profile(tracer.spans)
    doc = {
        "schema": CRASH_SCHEMA,
        "component": component,
        "seed": seed,
        "deterministic": logger.deterministic,
        "records": [r.to_dict() for r in logger.tail()],
        "open_spans": [
            _span_summary(s) for s in tracer.crash_stack(exc)
        ],
        "metrics": metrics.snapshot().to_dict(),
        "profile": [
            {"path": f.path, "calls": f.calls, "self": f.self_time}
            for f in profile.top(10)
        ],
    }
    if exc is not None:
        doc["exception"] = {
            "type": type(exc).__name__,
            "message": str(exc),
        }
    return doc


def crash_dump_path(directory: str, component: str, seed: int) -> str:
    """Deterministic dump filename for one (component, seed) pair."""
    safe = component.replace("/", "-").replace(" ", "-")
    return os.path.join(directory, f"crash_{safe}_{seed}.json")


def write_crash_report(doc: dict, directory: Optional[str] = None) -> str:
    """Write the crash document (sorted keys); returns the path."""
    directory = directory if directory is not None else default_crash_dir()
    os.makedirs(directory, exist_ok=True)
    path = crash_dump_path(directory, doc["component"], doc["seed"])
    with open(path, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


@contextmanager
def crash_scope(
    component: str, seed: int, directory: Optional[str] = None
):
    """Dump the flight recorder if the body raises, then re-raise.

    A no-op on the happy path and when the ambient logger is disabled —
    library code stays silent unless a run opted into recording.  The
    dump path is printed to stderr next to the failing seed, so a dead
    fuzz run or executor crash leaves a replayable forensic trail.
    """
    try:
        yield
    except Exception as exc:
        logger = get_logger()
        if logger.enabled:
            doc = build_crash_report(component, seed, exc=exc)
            path = write_crash_report(doc, directory)
            print(
                f"flight recorder: {component} crashed "
                f"(seed={seed}); dump written to {path}",
                file=sys.stderr,
            )
        raise
