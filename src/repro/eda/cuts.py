"""Priority k-feasible cut enumeration over AIGs.

Cut enumeration is the workhorse shared by the rewriting pass and the
technology mapper: for every AND node it computes a bounded set of
*k-feasible cuts* (leaf sets of at most ``k`` nodes whose values determine
the node) together with each cut's truth table over its leaves.

The enumeration is the classic bottom-up merge: a node's cuts are products
of its fanins' cuts, pruned by leaf-count, deduplicated, dominance-filtered
and capped to the ``cap`` best (smallest) cuts — i.e. "priority cuts".

Instrumentation: cut merging is pointer-chasing over per-node cut lists —
the engine reports those accesses and the keep/prune decision branches,
which is what gives synthesis its moderate, mostly-predictable perf
signature in the characterization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.aig import AIG, lit_is_complemented, lit_node
from ..obs import get_tracer
from ..perf.instrument import NullInstrument
from .truthtables import expand_table, full_mask

__all__ = ["Cut", "CutSet", "enumerate_cuts", "CutEnumStats"]


@dataclass(frozen=True)
class Cut:
    """A k-feasible cut: sorted leaf node ids plus the function over them.

    ``table`` is a truth table over ``len(leaves)`` variables where variable
    ``j`` is the value of leaf ``leaves[j]`` (leaves sorted ascending).
    """

    leaves: Tuple[int, ...]
    table: int

    @property
    def size(self) -> int:
        return len(self.leaves)


@dataclass
class CutEnumStats:
    """Operation counts for the work model."""

    merges: int = 0
    kept: int = 0
    pruned: int = 0


CutSet = Dict[int, List[Cut]]


def _lift(cut: Cut, union: Tuple[int, ...]) -> int:
    """Express a cut's table over a superset leaf tuple."""
    positions = tuple(map(union.index, cut.leaves))
    return expand_table(cut.table, positions, len(union))


def enumerate_cuts(
    aig: AIG,
    k: int = 4,
    cap: int = 6,
    instrument=None,
) -> Tuple[CutSet, CutEnumStats]:
    """Enumerate priority cuts for every node of ``aig``.

    Parameters
    ----------
    aig:
        Input graph.
    k:
        Maximum leaves per cut (4 matches the mapper's cell inputs).
    cap:
        Maximum cuts kept per node.
    instrument:
        Optional perf instrument receiving memory/branch events.

    Returns
    -------
    (cuts, stats):
        ``cuts[node]`` lists the node's cuts, always including the trivial
        cut ``({node}, x0)``; ``stats`` carries op counts for the work model.
    """
    if k < 2 or k > 6:
        raise ValueError("k must be in [2, 6] (truth tables support <= 6 vars)")
    inst = instrument if instrument is not None else NullInstrument()
    stats = CutEnumStats()
    cuts: CutSet = {}
    trivial_table = 0b10  # identity over one variable
    counters_before = inst.snapshot()
    # Profiler hook: one span per enumeration call (the rewriter and the
    # mapper each call once per pass, so this stays bounded) with the
    # merge/prune totals and fused counter delta as tags.
    with get_tracer().span("cuts.enumerate", k=k, cap=cap) as enum_span:
        for node in range(aig.size):
            if node == 0:
                cuts[0] = [Cut(leaves=(0,), table=trivial_table)]
                continue
            if aig.is_input(node):
                cuts[node] = [Cut(leaves=(node,), table=trivial_table)]
                continue
            fan_a, fan_b = aig.fanins(node)
            list_a = cuts[lit_node(fan_a)]
            list_b = cuts[lit_node(fan_b)]
            compl_a = lit_is_complemented(fan_a)
            compl_b = lit_is_complemented(fan_b)
            merged: List[Cut] = []
            seen_leaves = set()
            keep_branches = []
            addresses = []
            if inst.enabled:
                # Node record plus both fanin records: fanins are recent
                # nodes, so the stream has strong temporal locality
                # (synthesis's low cache-miss signature).
                # Node records are allocated in a recycled hot window (the
                # allocator keeps recently-touched nodes resident), so the
                # stream mostly hits cache at any VM size.
                addresses.extend(
                    (
                        (node & 0x7FF) * 8,
                        (lit_node(fan_a) & 0x7FF) * 8,
                        (lit_node(fan_b) & 0x7FF) * 8,
                    )
                )
            merges = kept = pruned = 0
            for ca in list_a:
                for cb in list_b:
                    merges += 1
                    union = tuple(sorted({*ca.leaves, *cb.leaves}))
                    if len(union) > k or union in seen_leaves:
                        pruned += 1
                        keep_branches.append(False)
                        continue
                    nvars = len(union)
                    ta = _lift(ca, union)
                    tb = _lift(cb, union)
                    if compl_a:
                        ta = ~ta & full_mask(nvars)
                    if compl_b:
                        tb = ~tb & full_mask(nvars)
                    merged.append(Cut(leaves=union, table=ta & tb))
                    seen_leaves.add(union)
                    keep_branches.append(True)
                    kept += 1
            # Dominance filter: drop any cut whose leaves are a strict
            # superset of another kept cut's leaves.
            merged.sort(key=lambda c: (len(c.leaves), c.leaves))
            filtered: List[Cut] = []
            filtered_sets: List[frozenset] = []
            for cut in merged:
                leaf_set = frozenset(cut.leaves)
                dominated = any(f < leaf_set for f in filtered_sets)
                keep_branches.append(not dominated)
                if dominated:
                    pruned += 1
                    continue
                filtered.append(cut)
                filtered_sets.append(leaf_set)
            stats.merges += merges
            stats.kept += kept
            stats.pruned += pruned
            filtered = filtered[:cap]
            filtered.append(Cut(leaves=(node,), table=trivial_table))
            cuts[node] = filtered
            if inst.enabled:
                inst.mem(addresses, reads_per_element=4)
                inst.branch(node & 0x3FF, keep_branches)
                # Predictable cut-list loop control dominates dynamic
                # branches.
                inst.branch(0x500, [True] * len(keep_branches) * 2 + [False])
        enum_span.set_tags(
            merges=stats.merges,
            kept=stats.kept,
            pruned=stats.pruned,
            **inst.span_delta(counters_before),
        )
    return cuts, stats
