#!/usr/bin/env python3
"""Regenerate the paper's experiments into a JSON results file.

Runs Figure 2, Figure 3, Table I and Figure 6 through the structured
experiment runner and writes machine-readable results — the artifact a
regression dashboard would track.  (Figure 5's GCN training is minutes;
run ``examples/runtime_prediction.py`` or the Fig. 5 benchmark for it.)

Usage::

    python examples/full_reproduction.py [results.json] [--quick]
"""

import json
import sys

from repro.core.experiments import run_all


def main() -> None:
    args = [a for a in sys.argv[1:]]
    quick = "--quick" in args
    args = [a for a in args if a != "--quick"]
    out_path = args[0] if args else "results.json"

    results = run_all(quick=quick)
    with open(out_path, "w") as f:
        json.dump(results, f, indent=2, sort_keys=True, default=str)

    fig2 = results["figure2"]
    print(f"characterized {fig2['design']}")
    print("  families:", fig2["recommended_families"])
    spd = {k: round(v[8], 2) for k, v in fig2["speedups"].items()}
    print("  speedup@8:", spd)
    fig3 = results["figure3"]
    print("  routing speedup@8 by design:",
          {k: round(v[8], 2) for k, v in fig3["speedups"].items()})
    t1 = results["table1_figure6"]
    print(f"  average saving: {t1['average_saving_pct']:.2f}% (paper: 35.29%)")
    print(f"results written to {out_path} "
          f"({results['meta']['wall_seconds']}s)")


if __name__ == "__main__":
    main()
