"""Shared helpers for the benchmark: statistics, output digests and the probe.

Nothing here imports :mod:`repro` at module level, so ``compare.py``
runs without the package on the path.  The probe wraps the program's
*public* callables from outside:
spans go to a private, never-installed :class:`repro.obs.Tracer`, and hot
fine-grained calls get counters or busy-time accumulators instead of spans.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10
#: Set-up runs at least this many times and for at least this long.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.5


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> float:
    """The highest order statistic with at least ten samples beyond it.

    With ``n`` samples that is the ``n - 10``-th smallest, i.e. the
    ``100 * (n - 10) / n``-th percentile.  Below twenty samples it would
    sit at or under the median, so the maximum is returned instead.
    """
    if not values:
        raise ValueError("tail() of no samples")
    ordered = sorted(values)
    if len(ordered) < 2 * TAIL_BEYOND:
        return float(ordered[-1])
    return float(ordered[len(ordered) - TAIL_BEYOND - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else math.inf


# -- output digests -----------------------------------------------------------


def canonical(obj):
    """A JSON-safe, order-independent form of ``obj`` for hashing.

    Floats become their shortest round-trip ``repr`` (so a digest moves on
    any bit change), enums their value, tuples lists, mapping keys strings.
    """
    if isinstance(obj, enum.Enum):  # before str: some enums subclass it
        return canonical(obj.value)
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(canonical(k)): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if hasattr(obj, "tolist"):  # numpy arrays and scalars
        return canonical(obj.tolist())
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def digest(obj) -> str:
    """SHA-256 of the canonical JSON of ``obj``."""
    text = json.dumps(canonical(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- timing -------------------------------------------------------------------


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def repeated_setup(build: Callable):
    """Run ``build`` at least ``SETUP_REPEATS`` times and for at least
    ``SETUP_MIN_S``; return the last result and the median set-up time,
    so one collector pause or stall does not read as slower set-up."""
    seconds: List[float] = []
    result = None
    while len(seconds) < SETUP_REPEATS or sum(seconds) < SETUP_MIN_S:
        result = None  # let the previous state go before rebuilding
        result, took = timed(build)
        seconds.append(took)
    return result, median(seconds)


# -- the probe ----------------------------------------------------------------


_MISSING = object()


class Probe:
    """Patches public callables with spans, counters or busy timers.

    Use as a context manager; every patch is undone on exit.  Spans land
    on ``self.tracer``, a private enabled tracer that is never installed
    as the process-global one, so the program's own instrumentation stays
    off and only the boundaries the benchmark chose are recorded.
    """

    def __init__(self):
        from repro.obs import Tracer

        self.tracer = Tracer(enabled=True)
        self.counts: Dict[str, float] = defaultdict(float)
        self.busy: Dict[str, float] = defaultdict(float)
        self._undo: List[tuple] = []

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    def _patch(self, owner, attr: str, make: Callable) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(original))

    def span(self, owner, attr: str, name: str, on_result=None) -> None:
        """Open span ``name`` around every call of ``owner.attr``;
        ``on_result(result)`` may harvest work counts from the return."""
        tracer = self.tracer

        def make(original):
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def on_return(self, owner, attr: str, hook: Callable) -> None:
        """Call ``hook(result)`` after every call of ``owner.attr``."""

        def make(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                hook(result)
                return result

            return wrapper

        self._patch(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` (for calls too hot for spans)."""
        counts = self.counts

        def make(original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def time(self, owner, attr: str, name: str) -> None:
        """Accumulate busy seconds of ``owner.attr`` into ``busy[name]``."""
        busy = self.busy
        clock = time.perf_counter

        def make(original):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    busy[name] += clock() - start

            return wrapper

        self._patch(owner, attr, make)

    def self_seconds(self) -> Dict[str, float]:
        """Self time per span name, summed over every stack path."""
        from repro.obs import build_profile

        out: Dict[str, float] = defaultdict(float)
        for frame in build_profile(self.tracer.spans).frames.values():
            out[frame.name] += frame.self_time
        return dict(out)

    def durations(self, name: str) -> List[float]:
        return [s.duration for s in self.tracer.find(name) if s.finished]
