"""Global routing engine: grid maze search with rip-up and reroute.

This is the "routing" application of the characterization — the one the
paper singles out for (a) the *highest branch-miss rate*, attributed to
data-dependent graph-search control flow and rip-up-and-reroute retries,
and (b) the *best multi-core scaling*, because "nets in independent grid
cells can be routed in parallel with no conflict" — capped on small
designs (Figure 3).

Algorithm (PathFinder-style negotiated congestion):

1. Overlay a gcell grid on the placed die; each grid edge has a capacity.
2. Decompose every net into two-pin segments (star model from the driver).
3. Route each segment with A* maze search under a congestion-aware cost
   (base + history + overflow penalty), bounded to an inflatable bbox.
4. Rip up nets crossing overflowed edges, bump edge history, reroute.
   Repeat until no overflow or the iteration cap.

The parallel structure is exported as a real task graph: nets whose
(inflated) bounding boxes do not overlap route concurrently within a wave;
waves are separated by commit barriers.  List scheduling of that graph on
k workers yields runtime(k) — large designs have wide waves and scale to
8 vCPUs, small ones plateau, which is exactly Figure 3.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import inf
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..netlist.netlist import PORT, Netlist
from ..obs import get_tracer
from ..parallel import TaskGraph, TaskGraphWorkload
from ..perf.instrument import NullInstrument
from .calibration import Calibration, DEFAULT_CALIBRATION
from .job import EDAStage, JobResult
from .placement import Placement

__all__ = ["RoutingResult", "GlobalRouter", "RouteSegment"]


@dataclass(eq=False)
class RouteSegment:
    """One routed two-pin connection.

    Compared by identity: two segments of one net may share source, target
    and path, and rip-up must remove the very object it ripped.
    """

    net: str
    source: Tuple[int, int]
    target: Tuple[int, int]
    path: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def wirelength(self) -> int:
        """Routed length in gcell steps."""
        return max(0, len(self.path) - 1)


@dataclass
class RoutingResult:
    """Artifact of global routing."""

    grid_width: int
    grid_height: int
    segments: List[RouteSegment]
    overflow: int
    iterations: int
    total_wirelength: int

    @property
    def num_segments(self) -> int:
        return len(self.segments)


class GlobalRouter:
    """Congestion-negotiating grid router.

    Parameters
    ----------
    gcell_size:
        Edge length of one grid cell in microns.
    capacity:
        Routing tracks per grid edge.
    max_iterations:
        Rip-up-and-reroute iteration cap.
    bbox_margin:
        Initial search-window inflation around each segment's bbox.
    """

    def __init__(
        self,
        gcell_size: float = 1.5,
        capacity: Optional[int] = None,
        max_iterations: int = 5,
        bbox_margin: int = 2,
        calibration: Calibration = DEFAULT_CALIBRATION,
        seed: int = 0,
    ):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.gcell_size = gcell_size
        self.capacity = capacity
        self.max_iterations = max_iterations
        self.bbox_margin = bbox_margin
        self.calibration = calibration
        self.seed = seed

    # ------------------------------------------------------------------
    def run(self, placement: Placement, instrument=None) -> JobResult:
        """Route a placed design; artifact is a :class:`RoutingResult`."""
        inst = instrument if instrument is not None else NullInstrument()
        netlist = placement.netlist
        width = max(4, int(math.ceil(placement.die_width / self.gcell_size)))
        height = max(4, int(math.ceil(placement.die_height / self.gcell_size)))

        def to_cell(pos: Tuple[float, float]) -> Tuple[int, int]:
            cx = min(width - 1, max(0, int(pos[0] / self.gcell_size)))
            cy = min(height - 1, max(0, int(pos[1] / self.gcell_size)))
            return cx, cy

        # Two-pin segments via the star model (driver -> each sink).
        # I/O-port connections are excluded: pad nets are assigned to
        # dedicated upper-layer routing resources (as production flows do),
        # so the congestion-negotiating grid router works on cell-to-cell
        # nets only.
        segments: List[RouteSegment] = []
        for net in netlist.nets.values():
            if net.driver is None or not net.sinks:
                continue
            d_owner, d_pin = net.driver
            if d_owner == PORT:
                continue
            src_cell = to_cell(placement.pin_position(d_owner, False))
            for s_owner, s_pin in net.sinks:
                if s_owner == PORT:
                    continue
                dst_cell = to_cell(placement.pin_position(s_owner, False))
                if dst_cell != src_cell:
                    segments.append(
                        RouteSegment(net=net.name, source=src_cell, target=dst_cell)
                    )

        # Auto-size edge capacity to the design's routing demand: total
        # Manhattan demand spread over the available edges, with ~25%
        # headroom.  This keeps every design in the same regime the paper
        # operates in — mostly routable, with localized congestion that
        # rip-up-and-reroute must negotiate.
        if self.capacity is None:
            demand = sum(
                abs(s_.source[0] - s_.target[0]) + abs(s_.source[1] - s_.target[1])
                for s_ in segments
            )
            num_edges = max(1, (width - 1) * height + width * (height - 1))
            capacity = max(3, int(math.ceil(3.0 * demand / num_edges)))
        else:
            capacity = self.capacity

        # Edge usage/history over one flat edge id space: horizontal edges
        # (x,y)->(x+1,y) take ids y*(width-1)+x, vertical edges
        # (x,y)->(x,y+1) follow at num_h + y*width+x.  Cells are y*width+x.
        num_h = (width - 1) * height
        num_edges = num_h + width * (height - 1)
        usage = [0] * num_edges
        hist = np.zeros(num_edges, dtype=np.float64)
        # Search-time edge costs, 1.0 + hist + pres_fac * over: refreshed
        # in full whenever pres_fac or the history changes and patched by
        # ``commit`` whenever usage changes, so the A* loop only reads them.
        base_cost: List[float] = []
        edge_cost: List[float] = []

        # Each cell's four moves in search order (+x, -x, +y, -y) as
        # (x, y, cell, edge, address of the edge's usage entry); a move off
        # the grid lies outside every window.  Vertical usage entries sit
        # in their own half of the address region.
        h_addr = 1 << 26
        v_addr = h_addr + (1 << 25)
        neighbours = []
        for y in range(height):
            for x in range(width):
                cell = y * width + x
                right = y * (width - 1) + x
                down = num_h + cell
                up = cell - width
                neighbours.append(
                    (
                        (x + 1, y, cell + 1, right, h_addr + right * 4),
                        (x - 1, y, cell - 1, right - 1, h_addr + (right - 1) * 4),
                        (x, y + 1, cell + width, down, v_addr + cell * 4),
                        (x, y - 1, up, down - width, v_addr + up * 4),
                    )
                )

        # ---- per-segment A* maze search --------------------------------
        rng = random.Random(self.seed)
        overflow_penalty = 8.0  # grows with iteration (pres-fac)
        heuristic_weight = 1.6

        pres_fac = overflow_penalty

        def route_segment(
            seg: RouteSegment, margin: int, collect_events: bool
        ) -> Tuple[int, List[bool], List[int]]:
            """A* from source to target; returns (expansions, branches, addrs)."""
            sx, sy = seg.source
            tx, ty = seg.target
            x_lo = max(0, min(sx, tx) - margin)
            x_hi = min(width - 1, max(sx, tx) + margin)
            y_lo = max(0, min(sy, ty) - margin)
            y_hi = min(height - 1, max(sy, ty) + margin)
            source = sy * width + sx
            target = ty * width + tx
            costs = edge_cost
            best_cost: Dict[int, float] = {source: 0.0}
            parent: Dict[int, int] = {}
            heap: List[Tuple[float, int, int]] = [
                (heuristic_weight * (abs(sx - tx) + abs(sy - ty)), 0, source)
            ]
            counter = 0
            expansions = 0
            branches: List[bool] = []
            addrs: List[int] = []
            record_branch = branches.append
            record_addr = addrs.append
            # Per-net scratch structures (visited map, parents, heap) live
            # in a cold region cycled across nets.
            scratch = (2 << 26) + ((zlib.crc32(seg.net.encode()) & 63) << 19)
            found = False
            while heap:
                _f, _tie, cell = heappop(heap)
                expansions += 1
                if collect_events:
                    record_addr(cell * 16)
                    record_addr(scratch + expansions * 16)
                if cell == target:
                    found = True
                    break
                base = best_cost[cell]
                for nx, ny, nxt, edge, edge_addr in neighbours[cell]:
                    in_window = x_lo <= nx <= x_hi and y_lo <= ny <= y_hi
                    if collect_events:
                        record_branch(in_window)
                    if not in_window:
                        continue
                    cost = base + costs[edge]
                    better = cost < best_cost.get(nxt, inf)
                    if collect_events:
                        record_branch(better)
                        record_addr(edge_addr)
                    if better:
                        best_cost[nxt] = cost
                        parent[nxt] = cell
                        counter += 1
                        heappush(
                            heap,
                            (
                                cost
                                + heuristic_weight * (abs(nx - tx) + abs(ny - ty)),
                                counter,
                                nxt,
                            ),
                        )
            if collect_events:
                # The heap-drain loop branch: taken until the search ends.
                branches.extend([True] * min(expansions, 4096))
                branches.append(False)
            if not found:
                return expansions, branches, addrs
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            path.reverse()
            seg.path = [(c % width, c // width) for c in path]
            return expansions, branches, addrs

        # ---- wave batching over disjoint search windows -------------------
        # Nets whose inflated search windows do not overlap route
        # concurrently within a wave ("nets in independent grid cells can be
        # routed in parallel with no conflict"); a serial commit barrier
        # separates waves.  Large nets additionally split into parallel
        # wavefront-expansion subtasks, as parallel maze routers do.
        coarse = 1
        cw = max(1, (width + coarse - 1) // coarse)
        # Routing-region tiling for the parallelism model: ~8 gcells per
        # region side, so the region count grows with design area.
        region_size = 5
        region_cols = max(1, (width + region_size - 1) // region_size)

        def window_cells(seg: RouteSegment, margin: int) -> frozenset:
            # Conflict tracking uses the tight bbox: concurrent maze
            # searches only clash where paths can actually meet.
            del margin
            x_lo = max(0, min(seg.source[0], seg.target[0])) // coarse
            x_hi = min(width - 1, max(seg.source[0], seg.target[0])) // coarse
            y_lo = max(0, min(seg.source[1], seg.target[1])) // coarse
            y_hi = min(height - 1, max(seg.source[1], seg.target[1])) // coarse
            return frozenset(
                yy * cw + xx
                for xx in range(x_lo, x_hi + 1)
                for yy in range(y_lo, y_hi + 1)
            )

        def build_waves(
            segs: Sequence[RouteSegment], margin: int
        ) -> List[List[RouteSegment]]:
            waves: List[List[RouteSegment]] = []
            occupancy: List[set] = []
            # Shortest segments first: they pack densely into early waves;
            # the few long (pad) nets get the tail waves.
            ordered = sorted(
                segs,
                key=lambda s_: (
                    abs(s_.source[0] - s_.target[0])
                    + abs(s_.source[1] - s_.target[1])
                ),
            )
            for seg in ordered:
                cells = window_cells(seg, margin)
                for wave_idx in range(len(waves)):
                    if occupancy[wave_idx].isdisjoint(cells):
                        waves[wave_idx].append(seg)
                        occupancy[wave_idx] |= cells
                        break
                else:
                    waves.append([seg])
                    occupancy.append(set(cells))
            return waves

        # Per-edge committed users, for targeted rip-up.
        edge_users: Dict[int, List[RouteSegment]] = {}

        def commit(seg: RouteSegment, sign: int) -> None:
            for (ax, ay), (bx, by) in zip(seg.path, seg.path[1:]):
                if ay == by:
                    edge = ay * (width - 1) + min(ax, bx)
                else:
                    edge = num_h + min(ay, by) * width + ax
                used = usage[edge] + sign
                usage[edge] = used
                edge_cost[edge] = base_cost[edge] + pres_fac * max(
                    0, used + 1 - capacity
                )
                if sign > 0:
                    edge_users.setdefault(edge, []).append(seg)
                else:
                    users = edge_users.get(edge)
                    if users and seg in users:
                        users.remove(seg)

        # ---- main negotiated-congestion loop -----------------------------
        cal = self.calibration
        graph = TaskGraph(name=f"routing:{netlist.name}")
        # Router workers are almost fully decoupled (each owns its
        # region queue), so per-worker sync overhead is far below the
        # fork-join engines'.
        workload = TaskGraphWorkload(
            graph, name=f"routing:{netlist.name}", sync_overhead=0.008
        )
        total_expansions = 0
        ripups = 0
        iteration = 0
        event_stride = max(1, len(segments) // 160)
        to_route: List[RouteSegment] = list(segments)
        prev_barrier: Optional[int] = None
        # Work quantum for splitting big maze searches into parallel
        # subtasks (seconds of modelled single-core time).
        subtask_quantum = 220 * cal.route_sec_per_expansion

        last_task: Dict[int, int] = {}
        iteration_barrier: Optional[int] = None
        prev_overflow = inf
        tracer = get_tracer()
        for iteration in range(1, self.max_iterations + 1):
            margin = self.bbox_margin + min(2, iteration - 1)
            pres_fac = overflow_penalty * iteration
            base = 1.0 + hist
            base_cost[:] = base.tolist()
            edge_cost[:] = (
                base + pres_fac * np.maximum(0, np.array(usage) + 1 - capacity)
            ).tolist()
            waves = build_waves(to_route, margin)
            commit_work = 0.0
            counters_before = inst.snapshot()
            expansions_before = total_expansions
            # Profiler hook: one cheap span per negotiation iteration
            # covering the wavefront expansion (at most max_iterations
            # spans per route).  The counter delta fused into the tags is
            # what lets the profile differ blame routing regressions on a
            # specific iteration's search rather than the stage total.
            with tracer.span("routing.iteration", iteration=iteration) as it_span:
                for wave in waves:
                    wave_streams: List[List[int]] = []
                    wave_updates: List[Tuple[frozenset, int]] = []
                    for si, seg in enumerate(wave):
                        collect = inst.enabled and (si % event_stride == 0)
                        expansions, branches, addrs = route_segment(
                            seg, margin, collect
                        )
                        total_expansions += expansions
                        # Parallelism model straight from the paper: "nets in
                        # independent grid cells can be routed in parallel with
                        # no conflict".  The die is tiled into routing regions;
                        # segments in the same region serialize on its worker
                        # queue, different regions proceed concurrently.  (Our
                        # scaled-down dies are ~30x smaller per side than the
                        # paper's 200k-instance design, so literal path-overlap
                        # conflicts would over-serialize; see DESIGN.md.)
                        mid_x = (seg.source[0] + seg.target[0]) // 2
                        mid_y = (seg.source[1] + seg.target[1]) // 2
                        region = (mid_y // region_size) * region_cols + (
                            mid_x // region_size
                        )
                        deps = set()
                        if region in last_task:
                            deps.add(last_task[region])
                        if iteration_barrier is not None:
                            deps.add(iteration_barrier)
                        work = (
                            expansions + 2 * len(seg.path)
                        ) * cal.route_sec_per_expansion
                        pieces = max(1, min(8, int(work / subtask_quantum)))
                        if pieces == 1:
                            owner = graph.add_task(
                                work=work, deps=sorted(deps), name=f"net:{seg.net}"
                            )
                        else:
                            # Parallel wavefront expansion: split the search
                            # into concurrent pieces joined by a zero-cost
                            # merge.
                            piece_ids = [
                                graph.add_task(
                                    work=work / pieces,
                                    deps=sorted(deps),
                                    name=f"net:{seg.net}",
                                )
                                for _ in range(pieces)
                            ]
                            owner = graph.add_task(
                                work=0.0, deps=piece_ids, name=f"merge:{seg.net}"
                            )
                        wave_updates.append((frozenset([region]), owner))
                        if seg.path:
                            commit(seg, +1)
                        if collect:
                            inst.branch(
                                0xB00 + (zlib.crc32(seg.net.encode()) & 0xFF),
                                branches,
                                weight=event_stride,
                            )
                            wave_streams.append(addrs)
                    # Cell ownership updates happen at wave granularity, so
                    # same-wave (disjoint) segments never order each other.
                    for cells, owner in wave_updates:
                        for c in cells:
                            last_task[c] = owner
                    commit_work += len(wave) * cal.route_sec_per_net_order
                    if inst.enabled and wave_streams:
                        stream = _interleave(wave_streams, max(1, inst.concurrency))
                        if inst.concurrency > 1:
                            # Coherence traffic: concurrent workers invalidate
                            # each other's cached usage entries; grows with the
                            # worker count.
                            extra = (
                                (len(stream) // 12) * (inst.concurrency - 1) // 7
                            )
                            coh = rng.sample(
                                range(num_edges), min(extra, num_edges)
                            )
                            stream.extend((3 << 26) + i * 64 for i in coh)
                        inst.mem(stream, reads_per_element=event_stride)
                it_span.set_tags(
                    waves=len(waves),
                    segments=len(to_route),
                    expansions=total_expansions - expansions_before,
                    **inst.span_delta(counters_before),
                )
            # One global sync per negotiation iteration (PathFinder's
            # overflow scan), plus the accumulated commit bookkeeping.
            iteration_barrier = graph.add_task(
                work=commit_work,
                deps=sorted(set(last_task.values())),
                name="overflow-scan",
            )

            # Overflow accounting and targeted rip-up: per overflowed edge,
            # rip exactly the excess users (shortest detours first).
            used = np.array(usage)
            over = used > capacity
            overflow = int(np.sum(np.maximum(0, used - capacity)))
            it_span.set_tag("overflow", overflow)
            if overflow == 0 or iteration == self.max_iterations:
                break
            if overflow > 0.9 * prev_overflow:
                # Negotiation has stagnated (hub-dominated congestion);
                # further rip-up would thrash without converging.
                break
            prev_overflow = overflow
            hist[over] += 2.0
            victims: List[RouteSegment] = []
            victim_ids = set()
            ripup_branches: List[bool] = []
            for edge in np.nonzero(over)[0].tolist():
                excess = usage[edge] - capacity
                users = [
                    u for u in edge_users.get(edge, []) if id(u) not in victim_ids
                ]
                users.sort(key=lambda s_: s_.wirelength)
                for u in users:
                    take = excess > 0
                    ripup_branches.append(take)
                    if not take:
                        break
                    victims.append(u)
                    victim_ids.add(id(u))
                    excess -= 1
            if inst.enabled:
                inst.branch(0xB50, ripup_branches)
            if not victims:
                break
            for seg in victims:
                commit(seg, -1)
                seg.path = []
                ripups += 1
            to_route = victims

        overflow = int(np.sum(np.maximum(0, np.array(usage) - capacity)))
        total_wl = sum(seg.wirelength for seg in segments)
        result = RoutingResult(
            grid_width=width,
            grid_height=height,
            segments=segments,
            overflow=overflow,
            iterations=iteration,
            total_wirelength=total_wl,
        )

        # Serial sections: net ordering, wave construction, rip-up commits.
        workload.add(
            len(segments) * cal.route_sec_per_net_order * 1.5,
            parallelism=1,
            name="ordering",
        )
        workload.add(ripups * cal.route_sec_per_ripup, parallelism=1, name="ripup")
        if inst.enabled:
            inst.instructions(total_expansions * 2)

        return JobResult(
            stage=EDAStage.ROUTING,
            design=netlist.name,
            profile=workload,
            counters=inst.counters,
            artifact=result,
            metrics={
                "segments": float(len(segments)),
                "expansions": float(total_expansions),
                "overflow": float(overflow),
                "wirelength": float(total_wl),
                "ripups": float(ripups),
                "iterations": float(iteration),
                "grid": float(width * height),
            },
        )


def _interleave(streams: List[List[int]], ways: int) -> List[int]:
    """Interleave address streams in chunks, modelling ``ways`` workers.

    With one worker the streams replay back-to-back (full per-net
    locality); with more workers, chunks from ``ways`` different nets
    alternate in the shared cache — the locality loss responsible for
    routing's slight miss-rate increase on wider VMs.
    """
    if ways <= 1 or len(streams) <= 1:
        return [a for s in streams for a in s]
    chunk = 32
    out: List[int] = []
    # Round-robin over groups of `ways` streams.
    for g in range(0, len(streams), ways):
        group = [list(s) for s in streams[g : g + ways]]
        offsets = [0] * len(group)
        while True:
            progressed = False
            for i, s in enumerate(group):
                lo = offsets[i]
                if lo < len(s):
                    out.extend(s[lo : lo + chunk])
                    offsets[i] = lo + chunk
                    progressed = True
            if not progressed:
                break
    return out
