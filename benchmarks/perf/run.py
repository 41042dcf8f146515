"""Benchmark entry point: one workload per process, end-to-end or traced.

Usage (from the repository root)::

    python3 benchmarks/perf/run.py --workload NAME [--seed N] [--seconds S]
                                   [--trace {0,1}] [--out FILE]
                                   [--update-reference]

Runs the workload on inputs made from ``--seed``, prints every metric with
its unit, checks the outputs against the committed reference digests in
``reference.json`` and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones.  Without ``--workload`` every workload runs, each in a fresh
subprocess.  The exit status is 0 only when every output check passed;
it is 2, with no result line, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
RESULTS_SCHEMA = "repro-perfbench/1"
#: A child workload is stopped after this long, under three minutes.
CHILD_TIMEOUT_S = 175


def parse_args(argv, spec: dict) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument("--out", help="append the run records to this results file")
    parser.add_argument(
        "--update-reference",
        action="store_true",
        help="store this run's output digest as the reference for its seed",
    )
    return parser.parse_args(argv)


def main(argv=None, reference_path: Path = REFERENCE, sizes: Optional[dict] = None) -> int:
    """Run the benchmark; ``sizes`` maps workload names to size objects
    (the tests pass toy sizes)."""
    try:
        spec = json.loads(SPEC.read_text())
    except FileNotFoundError:
        print(f"error: {SPEC} not found", file=sys.stderr)
        return 2
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: the workloads are single-threaded Python, and a
    # second BLAS thread on a small machine only adds timing noise.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload is None:
        runs, ok = run_all(args, spec)
    else:
        size = (sizes or {}).get(args.workload)
        result, ok = run_one(args, spec, reference_path, size)
        runs = [result]
    if args.out:
        record(Path(args.out), runs)
    return 0 if ok else 1


def run_one(args, spec: dict, reference_path: Path, size=None):
    """Run one workload in this process; returns ``(run record, ok)``."""
    import workloads
    from harness import digest

    if size is None:
        size = workloads.SIZES[args.workload]()
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), size
    )
    values: Dict[str, float] = dict(outcome.metrics)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    names = {m["name"] for m in declared}
    unknown = sorted(set(values) - names)
    if unknown:
        raise ValueError(f"metrics not declared in BENCHMARK.json: {unknown}")
    if not args.trace and names - set(values):
        raise ValueError(f"end-to-end metrics missing: {sorted(names - set(values))}")
    # Layers a workload never enters report zero work.
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }

    status = check_reference(
        reference_path,
        args.workload,
        args.seed,
        digest(asdict(size)),
        digest(outcome.reference),
        update=args.update_reference and not outcome.problems,
    )
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"reference digest: {status}")
    for problem in outcome.problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = not outcome.problems and status != "mismatch"
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return run_record(args, args.workload, status, result), correct


def run_record(args, workload: str, status: str, result: dict) -> dict:
    """One entry of a results document."""
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference": status,
        "result": result,
    }


def check_reference(
    path: Path, workload: str, seed: int, size_key: str, got: str, update: bool
) -> str:
    """``matched``, ``mismatch``, ``unchecked`` (no digest for this seed
    and size) or ``updated`` (``update`` stored ``got``)."""
    table = json.loads(path.read_text()) if path.exists() else {}
    entry = table.get(workload, {})
    if entry.get("size") != size_key:
        entry = {"size": size_key, "seeds": {}}
    expected = entry["seeds"].get(str(seed))
    if update:
        entry["seeds"][str(seed)] = got
        entry["seeds"] = dict(sorted(entry["seeds"].items(), key=lambda kv: int(kv[0])))
        table[workload] = entry
        path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
        return "updated"
    if expected is None:
        return "unchecked"
    return "matched" if expected == got else "mismatch"


def run_all(args, spec: dict):
    """Every workload in its own fresh subprocess, one after another."""
    runs = []
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        if args.update_reference:
            command.append("--update-reference")
        print(f"== {workload}", flush=True)
        try:
            proc = subprocess.run(
                command, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            print(f"error: {workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
            ok = False
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {workload} printed no result", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0
        prefix = "reference digest: "
        status = next(
            (line[len(prefix):] for line in lines if line.startswith(prefix)), "unknown"
        )
        runs.append(run_record(args, workload, status, result))
    summary = {
        "correct": ok,
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {
            f"{r['workload']}/{name}": metric
            for r in runs
            for name, metric in r["result"]["metrics"].items()
        },
    }
    print(json.dumps(summary), flush=True)
    return runs, ok


def environment() -> dict:
    """The machine facts a results file is read against."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def record(path: Path, runs: list) -> None:
    """Append run records to a results document, creating it if needed."""
    if path.exists():
        doc = json.loads(path.read_text())
    else:
        doc = {"schema": RESULTS_SCHEMA, "environment": environment(), "runs": []}
    doc["runs"].extend(runs)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
