"""Set-associative cache hierarchy simulator.

Models a private L1 data cache backed by a shared last-level cache (LLC)
with true LRU replacement.  The EDA engines feed their memory-access
streams (synthetic addresses derived from the data structures they walk)
through a hierarchy sized to the provisioned VM: more vCPUs bring more
aggregate L1 and a larger LLC slice, which is exactly the mechanism the
paper invokes to explain placement's falling miss rate at 8 vCPUs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

__all__ = ["CacheConfig", "CacheLevel", "CacheHierarchy", "hierarchy_for_vcpus"]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache geometry values must be positive")
        lines = self.size_bytes // self.line_bytes
        if lines % self.associativity:
            raise ValueError(
                f"size {self.size_bytes}B / line {self.line_bytes}B is not divisible "
                f"into {self.associativity}-way sets"
            )

    @property
    def num_sets(self) -> int:
        return (self.size_bytes // self.line_bytes) // self.associativity


class CacheLevel:
    """One LRU set-associative cache level.

    Each set is a list of resident line numbers, least recently used
    first.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._line_bytes = config.line_bytes
        self._num_sets = config.num_sets
        self._ways = config.associativity
        self._sets: List[List[int]] = [[] for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, address: int) -> bool:
        """Access one byte address; returns ``True`` on hit."""
        line = address // self._line_bytes
        cache_set = self._sets[line % self._num_sets]
        if line in cache_set:
            cache_set.remove(line)
            cache_set.append(line)
            self.hits += 1
            return True
        self.misses += 1
        cache_set.append(line)
        if len(cache_set) > self._ways:
            del cache_set[0]
        return False

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


class CacheHierarchy:
    """L1 backed by LLC; accesses that miss L1 go to the LLC."""

    def __init__(self, l1: CacheConfig, llc: CacheConfig):
        if llc.size_bytes < l1.size_bytes:
            raise ValueError("LLC must be at least as large as L1")
        self.l1 = CacheLevel(l1)
        self.llc = CacheLevel(llc)

    def access(self, address: int) -> Tuple[bool, bool]:
        """Access one address; returns ``(l1_hit, llc_hit)``.

        ``llc_hit`` is ``True`` whenever the request never reached the LLC
        (an L1 hit) or hit in the LLC.
        """
        if self.l1.access(address):
            return True, True
        return False, self.llc.access(address)

    def access_stream(self, addresses: Iterable[int]) -> None:
        """Process a whole address stream (counters accumulate internally).

        The same replacement as :meth:`CacheLevel.access` on both levels,
        inlined: this loop is the perf simulator's hot spot.
        """
        l1, llc = self.l1, self.llc
        l1_sets, l1_bytes, l1_num, l1_ways = (
            l1._sets, l1._line_bytes, l1._num_sets, l1._ways
        )
        llc_sets, llc_bytes, llc_num, llc_ways = (
            llc._sets, llc._line_bytes, llc._num_sets, llc._ways
        )
        l1_hits = l1_misses = llc_hits = llc_misses = 0
        for addr in addresses:
            line = addr // l1_bytes
            cache_set = l1_sets[line % l1_num]
            if line in cache_set:
                if cache_set[-1] != line:
                    cache_set.remove(line)
                    cache_set.append(line)
                l1_hits += 1
                continue
            l1_misses += 1
            cache_set.append(line)
            if len(cache_set) > l1_ways:
                del cache_set[0]
            line = addr // llc_bytes
            cache_set = llc_sets[line % llc_num]
            if line in cache_set:
                if cache_set[-1] != line:
                    cache_set.remove(line)
                    cache_set.append(line)
                llc_hits += 1
                continue
            llc_misses += 1
            cache_set.append(line)
            if len(cache_set) > llc_ways:
                del cache_set[0]
        l1.hits += l1_hits
        l1.misses += l1_misses
        llc.hits += llc_hits
        llc.misses += llc_misses

    def reset_stats(self) -> None:
        self.l1.reset_stats()
        self.llc.reset_stats()

    @property
    def stats(self) -> dict:
        return {
            "l1_hits": self.l1.hits,
            "l1_misses": self.l1.misses,
            "llc_hits": self.llc.hits,
            "llc_misses": self.llc.misses,
        }


#: Cache provisioning modelled on the paper's Xeon E5-2680 testbed
#: (32KB L1D per core, ~2.5MB LLC slice per core), scaled down ~8x so that
#: the benchmark designs exercise capacity misses at laptop scale.  The L1
#: is per-core and does not grow with VM size; the LLC slice allocated to
#: the tenant grows with the number of vCPUs purchased — which is the
#: mechanism behind placement's miss rate dropping as VMs get wider.
L1_BYTES = 4 * 1024
LLC_PER_VCPU_BYTES = 32 * 1024


def hierarchy_for_vcpus(
    vcpus: int,
    l1_bytes: int = L1_BYTES,
    llc_per_vcpu: int = LLC_PER_VCPU_BYTES,
    line_bytes: int = 64,
) -> CacheHierarchy:
    """Build the cache hierarchy seen by a job on a ``vcpus``-wide VM."""
    if vcpus < 1:
        raise ValueError("vcpus must be >= 1")
    l1 = CacheConfig(size_bytes=l1_bytes, line_bytes=line_bytes, associativity=4)
    llc = CacheConfig(
        size_bytes=llc_per_vcpu * vcpus, line_bytes=line_bytes, associativity=8
    )
    return CacheHierarchy(l1, llc)
