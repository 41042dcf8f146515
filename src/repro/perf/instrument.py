"""Instrumentation harness connecting EDA engines to the perf simulators.

An engine receives an :class:`Instrument` and reports, as it executes:

* memory accesses (synthetic byte addresses of the structures it touches),
* conditional branches (a site id plus the actual outcome),
* floating-point work (scalar and AVX-vector op counts),
* retired instruction estimates.

The instrument forwards memory streams to the cache hierarchy and branch
streams to the predictor, with optional striding (``sample_rate``) so large
designs stay cheap: sampled events are processed exactly and the *counts*
are scaled back up, which is precisely how hardware PMU sampling works.

:class:`NullInstrument` swallows everything at near-zero cost — used when
only runtimes are needed (e.g. GCN dataset generation).
"""

from __future__ import annotations

from dataclasses import fields
from typing import Optional, Sequence

from .branch import TwoBitPredictor
from .cache import CacheHierarchy, hierarchy_for_vcpus
from .counters import PerfCounters

__all__ = ["Instrument", "NullInstrument", "make_instrument"]


class NullInstrument:
    """No-op instrument; every report is discarded."""

    enabled = False
    #: Number of hardware threads the instrumented run is modelled on;
    #: engines may use this to interleave event streams the way concurrent
    #: workers would.
    concurrency = 1

    def mem(self, addresses: Sequence[int], reads_per_element: int = 1) -> None:
        """Ignore a memory-access stream."""

    def branch(self, site: int, outcomes: Sequence[bool], weight: int = 1) -> None:
        """Ignore a branch-outcome stream."""

    def flops(self, scalar: int = 0, avx: int = 0) -> None:
        """Ignore floating-point op counts."""

    def instructions(self, count: int) -> None:
        """Ignore an instruction-count estimate."""

    @property
    def counters(self) -> PerfCounters:
        """An empty counter set (nothing was recorded)."""
        return PerfCounters()

    # ------------------------------------------------------------------
    # Span fusion: snapshot counters around a region and tag the delta.
    # Implemented once here so instrumented and null runs produce spans
    # with *identical tag keys* (null deltas are all zero) — structural
    # trace comparisons must not depend on whether counters were on.
    # ------------------------------------------------------------------
    def snapshot(self) -> PerfCounters:
        """A copy of the counters as they stand right now."""
        current = self.counters
        copy = PerfCounters()
        for f in fields(PerfCounters):
            setattr(copy, f.name, getattr(current, f.name))
        return copy

    def span_delta(self, before: PerfCounters) -> dict:
        """Counter growth since ``before``, as span-taggable numbers.

        Returns the four headline counters the profiler fuses into
        frames: instructions, branches, memory accesses, and FP ops.
        """
        current = self.counters
        return {
            "instructions": current.instructions - before.instructions,
            "branches": current.branches - before.branches,
            "mem_accesses": current.mem_accesses - before.mem_accesses,
            "flops": current.fp_ops - before.fp_ops,
        }


class Instrument(NullInstrument):
    """Collects engine events into :class:`PerfCounters`.

    Parameters
    ----------
    cache:
        Cache hierarchy that memory streams are replayed through.
    predictor:
        Branch predictor that conditional outcomes are replayed through.
    sample_rate:
        Process every ``sample_rate``-th event and scale counters back up.
        ``1`` replays everything.
    """

    enabled = True

    def __init__(
        self,
        cache: Optional[CacheHierarchy] = None,
        predictor: Optional[TwoBitPredictor] = None,
        sample_rate: int = 1,
    ):
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self.cache = cache if cache is not None else hierarchy_for_vcpus(1)
        self.predictor = predictor if predictor is not None else TwoBitPredictor()
        self.sample_rate = sample_rate
        self.concurrency = 1
        self._counters = PerfCounters()

    # ------------------------------------------------------------------
    def mem(self, addresses: Sequence[int], reads_per_element: int = 1) -> None:
        """Replay a stream of byte addresses through the cache hierarchy."""
        n = len(addresses)
        if n == 0:
            return
        stride = self.sample_rate
        sampled = addresses[::stride] if stride > 1 else addresses
        l1_hits_before = self.cache.l1.hits
        l1_misses_before = self.cache.l1.misses
        llc_hits_before = self.cache.llc.hits
        llc_misses_before = self.cache.llc.misses
        self.cache.access_stream(sampled)
        scale = (n * reads_per_element) / max(1, len(sampled))
        c = self._counters
        c.mem_accesses += n * reads_per_element
        c.l1_hits += round((self.cache.l1.hits - l1_hits_before) * scale)
        c.l1_misses += round((self.cache.l1.misses - l1_misses_before) * scale)
        c.llc_hits += round((self.cache.llc.hits - llc_hits_before) * scale)
        c.llc_misses += round((self.cache.llc.misses - llc_misses_before) * scale)
        # A memory access retires at least one instruction.
        c.instructions += n * reads_per_element

    def branch(self, site: int, outcomes: Sequence[bool], weight: int = 1) -> None:
        """Replay conditional outcomes of one static branch site.

        ``weight`` scales the recorded branch count: the sequence stands for
        ``weight`` identical dynamic streams (e.g. one representative
        iteration of a loop executed ``weight`` times).
        """
        n = len(outcomes)
        if n == 0 or weight < 1:
            return
        stride = self.sample_rate
        sampled = outcomes[::stride] if stride > 1 else outcomes
        misses = self.predictor.process([site] * len(sampled), sampled)
        scale = (n * weight) / len(sampled)
        c = self._counters
        c.branches += n * weight
        c.branch_misses += round(misses * scale)
        c.instructions += n * weight

    def flops(self, scalar: int = 0, avx: int = 0) -> None:
        """Record floating-point work.

        Scalar FP ops retire one instruction each; AVX ops retire one
        instruction per 4-wide vector.
        """
        c = self._counters
        c.fp_scalar_ops += scalar
        c.fp_avx_ops += avx
        c.instructions += scalar + avx // 4

    def instructions(self, count: int) -> None:
        """Record non-memory, non-branch retired instructions."""
        self._counters.instructions += count

    @property
    def counters(self) -> PerfCounters:
        """The counters accumulated so far."""
        return self._counters


def make_instrument(
    vcpus: int, sample_rate: int = 1, table_bits: int = 12
) -> Instrument:
    """Convenience constructor for a VM-shaped instrument.

    The cache hierarchy is sized by ``vcpus`` (see
    :func:`repro.perf.cache.hierarchy_for_vcpus`); the branch predictor
    is per-core so its size does not scale.
    """
    instrument = Instrument(
        cache=hierarchy_for_vcpus(vcpus),
        predictor=TwoBitPredictor(table_bits=table_bits),
        sample_rate=sample_rate,
    )
    instrument.concurrency = vcpus
    return instrument
