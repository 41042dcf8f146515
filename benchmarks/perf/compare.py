"""Compare a parent's and a change's benchmark results, metric by metric.

Usage::

    python3 benchmarks/perf/compare.py PARENT.json CHANGE.json

Both files are results documents written by ``run.py --out``.  For every
(workload, end-to-end metric) pair it prints the two medians, each side's
quartile spread, the share of seed-paired runs the change won, and a
verdict, judged with the metric's bound from ``BENCHMARK.json``:

* ``failed``     -- a change run of the workload failed its output checks;
* ``better``     -- every change run beats every parent run, or the change
  wins at least 90% of the pairs and the medians differ by more than the
  parent's inter-quartile distance; never when the change fails a larger
  share of its operations than the parent;
* ``unresolved`` -- otherwise, when either side's spread exceeds the bound;
* ``worse``      -- the change's median is worse by more than the bound;
* ``same``       -- none of the above.

The exit status is 1 when any pair is ``worse`` or ``failed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from harness import quartile_spread

ROOT = Path(__file__).resolve().parents[2]
WIN_SHARE = 0.9


@dataclass
class Side:
    """One results file's untraced runs of one workload."""

    #: ``metric -> [(seed, value), ...]``
    values: Dict[str, List[Tuple[int, float]]] = field(
        default_factory=lambda: defaultdict(list)
    )
    incorrect: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def load_runs(path: Path) -> Dict[str, Side]:
    """``workload -> Side`` from the untraced runs of a results file."""
    out: Dict[str, Side] = defaultdict(Side)
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"]:
            continue
        side = out[run["workload"]]
        result = run["result"]
        side.incorrect += not result["correct"] or run["reference"] == "mismatch"
        side.attempted += result["attempted"]
        side.failed += result["failed"]
        for name, metric in result["metrics"].items():
            side.values[name].append((run["seed"], metric["value"]))
    return out


def win_share(parent: Sequence[Tuple[int, float]], change, lower: bool) -> float:
    """Share of seed-matched (parent, change) pairs the change won; ties
    count for neither side."""
    by_seed: Dict[int, List[float]] = defaultdict(list)
    for seed, value in parent:
        by_seed[seed].append(value)
    pairs = wins = 0
    for seed, value in change:
        if by_seed[seed]:
            base = by_seed[seed].pop(0)
            pairs += 1
            wins += (value < base) if lower else (value > base)
    return wins / pairs if pairs else 0.0


def verdict(
    parent: List[float],
    change: List[float],
    lower: bool,
    bound: float,
    wins: float,
    may_gain: bool = True,
) -> str:
    """The verdict on one metric; ``may_gain`` is false when the change
    fails more of its operations than the parent, so no gain counts."""
    sign = 1.0 if lower else -1.0
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worst_change = max(change) if lower else min(change)
    best_parent = min(parent) if lower else max(parent)
    if may_gain and sign * worst_change < sign * best_parent:
        return "better"
    if max(quartile_spread(parent), quartile_spread(change)) > bound:
        return "unresolved"
    if sign * (c_med - p_med) > bound * abs(p_med):
        return "worse"
    q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (p_med,) * 3
    if may_gain and wins >= WIN_SHARE and sign * (p_med - c_med) > q3 - q1:
        return "better"
    return "same"


def compare(parent_path: Path, change_path: Path) -> List[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            continue
        before, after = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if not before.values.get(name) or not after.values.get(name):
                continue
            lower = metric["better"] == "lower"
            p = [v for _, v in before.values[name]]
            c = [v for _, v in after.values[name]]
            wins = win_share(before.values[name], after.values[name], lower)
            if after.incorrect:
                decided = "failed"
            else:
                may_gain = after.failed_share <= before.failed_share
                decided = verdict(p, c, lower, metric["bound"], wins, may_gain)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "parent": statistics.median(p),
                    "change": statistics.median(c),
                    "parent_spread": quartile_spread(p),
                    "change_spread": quartile_spread(c),
                    "wins": wins,
                    "runs": (len(p), len(c)),
                    "failed_share": (before.failed_share, after.failed_share),
                    "verdict": decided,
                }
            )
    return rows


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    rows = compare(Path(args[0]), Path(args[1]))
    print(
        f"{'workload':20s} {'metric':17s} {'parent':>12s} {'change':>12s} "
        f"{'spread p/c':>13s} {'wins':>5s} {'runs':>7s} {'failed p/c':>13s}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:20s} {r['metric']:17s} {r['parent']:12.5g} "
            f"{r['change']:12.5g} {r['parent_spread']:6.1%}/{r['change_spread']:6.1%} "
            f"{r['wins']:5.0%} {r['runs'][0]:>3d}/{r['runs'][1]:<3d} "
            f"{r['failed_share'][0]:6.1%}/{r['failed_share'][1]:6.1%}  {r['verdict']}"
        )
    return 1 if any(r["verdict"] in ("worse", "failed") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
