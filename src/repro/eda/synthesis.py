"""Logic synthesis engine: AIG optimization passes + technology mapping.

This is the "synthesis" application of the paper's characterization.  It
performs the real algorithms a synthesis tool runs:

* **balance** — AND-tree rebalancing for depth reduction,
* **rewrite / refactor** — cut-based restructuring: enumerate k-feasible
  cuts, compute cut functions, re-express them as factored irredundant
  sums-of-products (Minato-Morreale ISOP),
* **technology mapping** — priority-cut enumeration, NPN-lite boolean
  matching against the cell library, area-flow dynamic programming, and
  cover extraction into a gate-level :class:`~repro.netlist.netlist.Netlist`.

Different *recipes* (pass sequences with seeds) generate the structurally
distinct netlist variants the paper's dataset is built from (330 netlists
from 18 designs).

The engine reports its primitive operations to the perf instrument and
returns a :class:`~repro.eda.job.JobResult` whose work profile follows the
paper's synthesis scaling shape: cut enumeration and matching parallelize
across nodes, while graph rebuilds and cover extraction are serial — which
caps the speedup well below linear (Figure 2-d).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..netlist.aig import AIG, CONST_FALSE, CONST_TRUE, lit_is_complemented, lit_node, lit_not
from ..netlist.cells import Library, nangate_lite
from ..netlist.netlist import Netlist
from ..parallel import WorkProfile
from ..perf.instrument import NullInstrument
from .calibration import Calibration, DEFAULT_CALIBRATION
from .cuts import Cut, enumerate_cuts
from .job import EDAStage, JobResult
from .truthtables import flip_var, full_mask, isop

__all__ = [
    "balance",
    "restructure",
    "apply_recipe",
    "recipe_variants",
    "TechnologyMapper",
    "MappingStats",
    "SynthesisEngine",
    "DEFAULT_RECIPE",
]

#: The default synthesis script (an ABC ``resyn``-style recipe).
DEFAULT_RECIPE: Tuple[str, ...] = ("balance", "rewrite", "balance", "refactor", "balance")


# ----------------------------------------------------------------------
# Optimization passes
# ----------------------------------------------------------------------
def _collect_and_leaves(
    aig: AIG, literal: int, leaves: List[int], fanout: List[int], root: int
) -> None:
    """Gather the leaf literals of the maximal same-polarity AND tree.

    Stops at complemented edges, primary inputs, and shared (multi-fanout)
    nodes — inlining a shared node would duplicate logic.
    """
    node = lit_node(literal)
    if (
        lit_is_complemented(literal)
        or not aig.is_and(node)
        or (node != root and fanout[node] > 1)
    ):
        leaves.append(literal)
        return
    a, b = aig.fanins(node)
    _collect_and_leaves(aig, a, leaves, fanout, root)
    _collect_and_leaves(aig, b, leaves, fanout, root)


def balance(aig: AIG) -> AIG:
    """Depth-oriented AND-tree balancing.

    Rebuilds every AND node as a balanced tree over the leaves of its
    maximal single-polarity AND cone, pairing shallowest leaves first
    (Huffman-style), which minimizes tree depth.
    """
    new = AIG(aig.name)
    mapping: Dict[int, int] = {0: CONST_FALSE}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = new.add_input(name)
    level = [0] * max(1, new.size)
    fanout = aig.fanout_counts()

    def new_level(literal: int) -> int:
        node = lit_node(literal)
        return level[node] if node < len(level) else 0

    for node in aig.and_nodes():
        leaves: List[int] = []
        _collect_and_leaves(aig, 2 * node, leaves, fanout, node)
        mapped = []
        for leaf in leaves:
            base = mapping[lit_node(leaf)]
            mapped.append(base ^ (1 if lit_is_complemented(leaf) else 0))
        # Deduplicate identical leaves (x & x); detect complements (x & ~x).
        unique = sorted(set(mapped))
        result: Optional[int] = None
        if any(lit_not(m) in set(unique) for m in unique):
            result = CONST_FALSE
        else:
            # Pair shallowest first.
            heap = sorted(unique, key=lambda m: (new_level(m), m))
            while len(heap) > 1:
                a = heap.pop(0)
                b = heap.pop(0)
                combined = new.add_and(a, b)
                while len(level) < new.size:
                    level.append(0)
                level[lit_node(combined)] = 1 + max(new_level(a), new_level(b))
                # Insert by level to keep the tree balanced.
                lvl = new_level(combined)
                pos = 0
                while pos < len(heap) and new_level(heap[pos]) <= lvl:
                    pos += 1
                heap.insert(pos, combined)
            result = heap[0] if heap else CONST_TRUE
        mapping[node] = result
        while len(level) < new.size:
            level.append(0)
    for out, name in zip(aig.outputs, aig.output_names):
        mapped = mapping[lit_node(out)] ^ (1 if lit_is_complemented(out) else 0)
        new.add_output(mapped, name)
    return new.cleanup()


@dataclass
class RestructureStats:
    """Operation counts from one restructuring pass (for the work model)."""

    cut_merges: int = 0
    isop_calls: int = 0
    cubes_built: int = 0
    nodes_rebuilt: int = 0


def _build_sop(
    aig: AIG, cubes: Sequence[Tuple[int, int]], leaf_lits: Sequence[int]
) -> int:
    """Construct a factored SOP over mapped leaf literals inside ``aig``."""
    or_terms: List[int] = []
    for care, value in cubes:
        lits: List[int] = []
        for j, leaf in enumerate(leaf_lits):
            if (care >> j) & 1:
                lits.append(leaf if (value >> j) & 1 else lit_not(leaf))
        if not lits:
            return CONST_TRUE
        term = lits[0]
        for l in lits[1:]:
            term = aig.add_and(term, l)
        or_terms.append(term)
    if not or_terms:
        return CONST_FALSE
    result = or_terms[0]
    for term in or_terms[1:]:
        result = aig.add_or(result, term)
    return result


def restructure(
    aig: AIG,
    seed: int = 0,
    cut_size: int = 4,
    rewrite_probability: float = 0.5,
    keep_only_improved: bool = False,
    instrument=None,
    stats: Optional[RestructureStats] = None,
) -> AIG:
    """Cut-based restructuring (the ``rewrite``/``refactor`` pass).

    For a seeded random subset of nodes, re-expresses the node's best cut
    function as a factored ISOP over the cut leaves; structural hashing
    then shares whatever it can.  With ``keep_only_improved`` the original
    graph is returned unless the rewrite reduced the AND count — that is
    the area-recovery mode; without it the pass is a *structural variant
    generator* (same function, different structure), which is how the
    paper's dataset challenges the GCN.
    """
    inst = instrument if instrument is not None else NullInstrument()
    rng = random.Random(seed)
    st = stats if stats is not None else RestructureStats()
    cuts, enum_stats = enumerate_cuts(aig, k=cut_size, cap=6, instrument=inst)
    st.cut_merges += enum_stats.merges

    new = AIG(aig.name)
    mapping: Dict[int, int] = {0: CONST_FALSE}
    for node, name in zip(aig.inputs, aig.input_names):
        mapping[node] = new.add_input(name)
    for node in aig.and_nodes():
        rebuilt = False
        if rng.random() < rewrite_probability:
            # Choose the largest non-trivial cut (most room to restructure).
            candidates = [c for c in cuts[node] if c.size > 1]
            if candidates:
                cut = max(candidates, key=lambda c: (c.size, c.leaves))
                st.isop_calls += 1
                cubes = isop(cut.table, cut.table, cut.size)
                st.cubes_built += len(cubes)
                if inst.enabled:
                    inst.branch(0x700 + (node & 0xFF), [True] * len(cubes))
                leaf_lits = [mapping[leaf] for leaf in cut.leaves]
                mapping[node] = _build_sop(new, cubes, leaf_lits)
                rebuilt = True
                st.nodes_rebuilt += 1
        if not rebuilt:
            a, b = aig.fanins(node)
            na = mapping[lit_node(a)] ^ (1 if lit_is_complemented(a) else 0)
            nb = mapping[lit_node(b)] ^ (1 if lit_is_complemented(b) else 0)
            mapping[node] = new.add_and(na, nb)
    for out, name in zip(aig.outputs, aig.output_names):
        mapped = mapping[lit_node(out)] ^ (1 if lit_is_complemented(out) else 0)
        new.add_output(mapped, name)
    new = new.cleanup()
    if keep_only_improved and new.num_ands > aig.num_ands:
        return aig
    return new


def apply_recipe(
    aig: AIG,
    recipe: Sequence[str] = DEFAULT_RECIPE,
    seed: int = 0,
    instrument=None,
    stats: Optional[RestructureStats] = None,
) -> AIG:
    """Apply a sequence of named passes.

    Recognized pass names: ``balance``/``b``, ``rewrite``/``rw`` (4-cut
    restructuring, area-recovering), ``refactor``/``rf`` (6-cut
    restructuring, area-recovering), ``shuffle`` (variant-generating
    restructuring that may grow the graph).
    """
    current = aig
    for i, token in enumerate(recipe):
        pass_seed = seed * 1000003 + i
        if token in ("balance", "b"):
            current = balance(current)
        elif token in ("rewrite", "rw"):
            current = restructure(
                current, seed=pass_seed, cut_size=4, rewrite_probability=0.6,
                keep_only_improved=True, instrument=instrument, stats=stats,
            )
        elif token in ("refactor", "rf"):
            current = restructure(
                current, seed=pass_seed, cut_size=6, rewrite_probability=0.3,
                keep_only_improved=True, instrument=instrument, stats=stats,
            )
        elif token == "shuffle":
            current = restructure(
                current, seed=pass_seed, cut_size=4, rewrite_probability=0.5,
                keep_only_improved=False, instrument=instrument, stats=stats,
            )
        else:
            raise ValueError(f"unknown synthesis pass {token!r}")
    return current


def recipe_variants(count: int, seed: int = 0) -> List[Tuple[Tuple[str, ...], int]]:
    """Generate ``count`` distinct (recipe, seed) pairs for dataset building.

    Mirrors the paper's "applying different logic optimizations to generate
    different netlists ... that have different physical structures but
    perform the same logic function".
    """
    rng = random.Random(seed)
    pool = ["balance", "rewrite", "refactor", "shuffle"]
    variants: List[Tuple[Tuple[str, ...], int]] = []
    seen = set()
    while len(variants) < count:
        length = rng.randint(1, 4)
        recipe = tuple(rng.choice(pool) for _ in range(length))
        recipe_seed = rng.randrange(1 << 30)
        key = (recipe, recipe_seed)
        if key in seen:
            continue
        seen.add(key)
        variants.append(key)
    return variants


# ----------------------------------------------------------------------
# Technology mapping
# ----------------------------------------------------------------------
@dataclass
class MappingStats:
    """Operation counts from technology mapping (for the work model)."""

    cut_merges: int = 0
    match_lookups: int = 0
    covered_nodes: int = 0
    inverters_added: int = 0


@dataclass
class _Choice:
    cut: Cut
    cell_name: str
    perm: Tuple[int, ...]
    output_inverted: bool
    input_negations: int  # bitmask over cut leaf positions
    area_flow: float


class TechnologyMapper:
    """Area-oriented cut-based mapper onto a :class:`Library`."""

    def __init__(self, library: Optional[Library] = None):
        self.library = library if library is not None else nangate_lite()
        self._inv_area = self.library.cell("INV_X1").area
        #: ``_match`` results by ``(table, nvars)``: a pure function of the
        #: key for a fixed library.
        self._matches: Dict[Tuple[int, int], Optional[tuple]] = {}

    # -- boolean matching ------------------------------------------------
    def _match(self, table: int, nvars: int, stats: MappingStats):
        """NPN-lite match: try all input-negation subsets, pick cheapest.

        ``match_lookups`` counts the ``1 << nvars`` library lookups the
        match stands for, memoized or not: the work model reads it.
        """
        stats.match_lookups += 1 << nvars
        key = (table, nvars)
        if key not in self._matches:
            self._matches[key] = self._best_match(table, nvars)
        return self._matches[key]

    def _best_match(self, table: int, nvars: int):
        best = None
        for neg in range(1 << nvars):
            t = table
            for j in range(nvars):
                if (neg >> j) & 1:
                    t = flip_var(t, j, nvars)
            m = self.library.best_match(t, nvars)
            if m is None:
                continue
            cell, perm, inverted = m
            cost = (
                cell.area
                + self._inv_area * bin(neg).count("1")
                + (self._inv_area if inverted else 0.0)
            )
            if best is None or cost < best[0]:
                best = (cost, cell, perm, inverted, neg)
        return best

    # -- main entry -------------------------------------------------------
    def map(
        self, aig: AIG, instrument=None
    ) -> Tuple[Netlist, MappingStats]:
        """Map an AIG to a netlist; returns the netlist and op counts."""
        inst = instrument if instrument is not None else NullInstrument()
        stats = MappingStats()
        cuts, enum_stats = enumerate_cuts(aig, k=4, cap=6, instrument=inst)
        stats.cut_merges = enum_stats.merges
        fanout = aig.fanout_counts()

        best: Dict[int, _Choice] = {}
        area_flow: Dict[int, float] = {0: 0.0}
        for node in aig.inputs:
            area_flow[node] = 0.0
        for node in aig.and_nodes():
            chosen: Optional[_Choice] = None
            for cut in cuts[node]:
                if cut.size == 1:
                    continue  # trivial cut cannot implement the node
                if cut.table in (0, full_mask(cut.size)):
                    continue
                match = self._match(cut.table, cut.size, stats)
                if match is None:
                    continue
                cost, cell, perm, inverted, neg = match
                flow = cost + sum(
                    area_flow[leaf] / max(1, fanout[leaf]) for leaf in cut.leaves
                )
                if chosen is None or flow < chosen.area_flow:
                    chosen = _Choice(
                        cut=cut,
                        cell_name=cell.name,
                        perm=perm,
                        output_inverted=inverted,
                        input_negations=neg,
                        area_flow=flow,
                    )
            if chosen is None:
                raise RuntimeError(
                    f"no library match for node {node}; library incomplete"
                )
            best[node] = chosen
            area_flow[node] = chosen.area_flow

        netlist = self._cover(aig, best, stats, inst)
        return netlist, stats

    # -- cover extraction --------------------------------------------------
    def _cover(
        self,
        aig: AIG,
        best: Dict[int, _Choice],
        stats: MappingStats,
        inst,
    ) -> Netlist:
        netlist = Netlist(aig.name, self.library)
        net_of: Dict[int, str] = {}
        for node, name in zip(aig.inputs, aig.input_names):
            netlist.add_input_port(name)
            net_of[node] = name

        inverted_nets: Dict[str, str] = {}

        def inverted(net: str) -> str:
            if net not in inverted_nets:
                bar = f"{net}__bar"
                netlist.add_instance(
                    f"inv_{len(inverted_nets)}",
                    "INV_X1",
                    {"A": net, "Y": bar},
                )
                inverted_nets[net] = bar
                stats.inverters_added += 1
            return inverted_nets[net]

        # Select required nodes from the outputs down through chosen cuts.
        required: List[int] = []
        seen = set()
        stack = [lit_node(out) for out in aig.outputs if lit_node(out) != 0]
        while stack:
            node = stack.pop()
            if node in seen or aig.is_input(node) or node == 0:
                continue
            seen.add(node)
            required.append(node)
            stack.extend(best[node].cut.leaves)
        required.sort()  # node ids are topological

        cover_branches = []
        addresses = []
        for node in required:
            choice = best[node]
            cell = self.library.cell(choice.cell_name)
            out_net = f"n{node}"
            leaf_nets: List[str] = []
            for j, leaf in enumerate(choice.cut.leaves):
                if leaf == 0:
                    raise RuntimeError("constant leaves should have been pruned")
                net = net_of.get(leaf)
                if net is None:
                    raise RuntimeError(f"leaf {leaf} not yet covered")
                if (choice.input_negations >> j) & 1:
                    net = inverted(net)
                leaf_nets.append(net)
            pins = {cell.output: out_net if not choice.output_inverted else f"n{node}__pre"}
            # matches() semantics: cell input pin j reads cut leaf perm[j].
            for j in range(cell.num_inputs):
                pins[cell.inputs[j]] = leaf_nets[choice.perm[j]]
            netlist.add_instance(f"g{node}", cell.name, pins)
            if choice.output_inverted:
                netlist.add_instance(
                    f"g{node}_fix", "INV_X1", {"A": f"n{node}__pre", "Y": out_net}
                )
                stats.inverters_added += 1
            net_of[node] = out_net
            stats.covered_nodes += 1
            cover_branches.append(choice.output_inverted)
            addresses.append((node & 0x7FF) * 8)
            addresses.extend((leaf & 0x7FF) * 8 for leaf in choice.cut.leaves[:2])

        if inst.enabled:
            inst.mem(addresses)
            inst.branch(0x900, cover_branches)

        const0_net: Optional[str] = None

        def constant_net(value: bool) -> str:
            """Tie net built as ``a & ~a`` (plus INV for constant one)."""
            nonlocal const0_net
            if const0_net is None:
                if not aig.inputs:
                    raise RuntimeError("cannot build tie cells without inputs")
                base = net_of[aig.inputs[0]]
                const0_net = "tie_lo"
                netlist.add_instance(
                    "tie_lo_cell",
                    "AND2_X1",
                    {"A": base, "B": inverted(base), "Y": const0_net},
                )
            return inverted(const0_net) if value else const0_net

        for out, name in zip(aig.outputs, aig.output_names):
            node = lit_node(out)
            if node == 0:
                net = constant_net(lit_is_complemented(out))
            else:
                net = net_of[node]
                if lit_is_complemented(out):
                    net = inverted(net)
            netlist.add_output_port(name, net)
        netlist.validate()
        return netlist


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class SynthesisEngine:
    """Runs optimization + mapping and reports work/counters.

    Parameters
    ----------
    library:
        Target cell library (defaults to ``nangate_lite``).
    calibration:
        Op-count-to-seconds constants.
    """

    def __init__(
        self,
        library: Optional[Library] = None,
        calibration: Calibration = DEFAULT_CALIBRATION,
    ):
        self.library = library if library is not None else nangate_lite()
        self.calibration = calibration
        self.mapper = TechnologyMapper(self.library)

    def run(
        self,
        aig: AIG,
        recipe: Sequence[str] = DEFAULT_RECIPE,
        seed: int = 0,
        instrument=None,
    ) -> JobResult:
        """Synthesize ``aig`` into a netlist.

        The returned :class:`JobResult`'s artifact is the mapped netlist.
        """
        inst = instrument if instrument is not None else NullInstrument()
        opt_stats = RestructureStats()
        optimized = apply_recipe(aig, recipe, seed=seed, instrument=inst, stats=opt_stats)
        netlist, map_stats = self.mapper.map(optimized, instrument=inst)

        cal = self.calibration
        profile = WorkProfile(name=f"synthesis:{aig.name}")
        # Parallel part: cut enumeration + boolean matching (per-node).
        profile.add(
            (opt_stats.cut_merges + map_stats.cut_merges) * cal.synth_sec_per_cut_merge,
            parallelism=cal.synth_parallel_limit,
            name="cut-enumeration",
        )
        profile.add(
            map_stats.match_lookups * cal.synth_sec_per_cut_merge * 0.25,
            parallelism=cal.synth_parallel_limit,
            name="matching",
        )
        # Serial part: graph rebuilds, ISOP, covering.
        profile.add(
            (opt_stats.isop_calls + opt_stats.cubes_built) * cal.synth_sec_per_rewrite,
            parallelism=1,
            name="restructure",
        )
        profile.add(
            (map_stats.covered_nodes + map_stats.inverters_added)
            * cal.synth_sec_per_cover
            + aig.num_ands * cal.synth_sec_per_cover * 0.5,
            parallelism=1,
            name="cover",
        )

        return JobResult(
            stage=EDAStage.SYNTHESIS,
            design=aig.name,
            profile=profile,
            counters=inst.counters,
            artifact=netlist,
            metrics={
                "input_ands": float(aig.num_ands),
                "optimized_ands": float(optimized.num_ands),
                "instances": float(netlist.num_instances),
                "area": float(netlist.total_area()),
                "depth": float(netlist.depth()),
            },
        )
