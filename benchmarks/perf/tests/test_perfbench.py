"""Tests for the benchmark harness: statistics, digests, workloads, exit codes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import compare
import harness
import run
import workloads
from repro.eda.job import EDAStage
from repro.service.api import EDAService
from repro.service.jobs import JobRequest

ROOT = Path(__file__).resolve().parents[3]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TOY = {
    "characterize_paper": workloads.CharacterizeSize(
        design="ctrl", scale=0.3, vcpu_levels=(1, 2)
    ),
    "predict_train": workloads.PredictSize(
        designs=("cavlc", "ctrl", "dec", "i2c", "priority"), scale=0.2, epochs=1
    ),
    "service_mix": workloads.ServiceSize(designs=(("ctrl", 0.3),), batch_jobs=20),
    "fleet_replan": workloads.FleetSize(
        flows=2000, menus=8, deadline_buckets=4, execute_per_tick=20,
        checked_ticks=3, spot_checks=5,
    ),
}


def test_tail_is_the_highest_order_statistic_with_ten_beyond():
    values = list(range(40))
    random.Random(0).shuffle(values)
    assert harness.tail(values) == 29  # the 75th percentile of 40 samples
    assert harness.tail(list(range(3000))) == 2989
    # Below twenty samples the tail would not clear the median: max.
    assert harness.tail([3.0, 1.0, 2.0]) == 3.0
    with pytest.raises(ValueError):
        harness.tail([])


def test_open_loop_charges_a_stall_to_the_requests_due_during_it():
    stall = 0.2

    def runner(job, ctx):
        if job.seq == 0:
            time.sleep(stall)  # holds the inline event loop, generator included
        return {"kind": "sleep"}

    service = EDAService(workloads.CONFIG, runner=runner)
    requests = [JobRequest(kind="sleep", client="c") for _ in range(5)]
    due, late = workloads.open_loop(service, requests, rate=100.0)
    assert len(due) == len(late) == 5
    job = service.jobs["job-0001"]
    # Due 10 ms in, submitted only after the stall: latency counts from the
    # due time, so the wait shows although the job itself took no time.
    assert workloads.edge(job, "done") - due["job-0001"] >= stall - 0.05
    assert workloads.edge(job, "done") - workloads.edge(job, "queued") < stall / 2
    assert late[1] >= stall - 0.05


def test_digest_is_order_independent_and_bit_sensitive():
    assert harness.digest({"a": 1, "b": [1.5, (2, 3)]}) == harness.digest(
        {"b": [1.5, [2, 3]], "a": 1}
    )
    assert harness.digest({"x": 0.1 + 0.2}) != harness.digest({"x": 0.3})
    assert harness.digest(np.array([1.0, 2.0])) == harness.digest([1.0, 2.0])
    assert harness.digest({EDAStage.ROUTING: 1}) == harness.digest({"routing": 1})
    assert harness.digest(True) != harness.digest(1)
    with pytest.raises(TypeError):
        harness.canonical(object())


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_runs_at_toy_size(name):
    workload = workloads.WORKLOADS[name]
    plain = workload(0, 0.0, False, TOY[name])
    assert plain.problems == [] and plain.failed == 0 and plain.attempted > 0
    declared = {m["name"] for m in SPEC["end_to_end"]} - {"peak_rss_mb"}
    assert set(plain.metrics) == declared
    assert all(value > 0 for value in plain.metrics.values())

    traced = workload(0, 0.0, True, TOY[name])
    again = workload(0, 0.0, True, TOY[name])
    assert traced.problems == [] and again.problems == []
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(traced.metrics) <= set(layers)
    assert "bench.trace_overhead_frac" in traced.metrics
    counts = [k for k, unit in layers.items() if unit == "count"]
    assert [traced.metrics.get(k) for k in counts] == [again.metrics.get(k) for k in counts]
    # Probing must not change what the program computes.
    assert harness.digest(traced.reference) == harness.digest(plain.reference)
    if name == "service_mix":
        assert traced.metrics.get("service.flow_builds", 0) == 0


def test_unknown_seed_is_unchecked_and_a_perturbed_digest_fails(tmp_path, capsys):
    reference = tmp_path / "reference.json"
    sizes = {"fleet_replan": TOY["fleet_replan"]}
    argv = ["--workload", "fleet_replan", "--seed", "3", "--seconds", "0"]

    assert run.main(argv, reference_path=reference, sizes=sizes) == 0
    assert "reference digest: unchecked" in capsys.readouterr().out
    assert run.main(argv + ["--update-reference"], reference_path=reference, sizes=sizes) == 0
    assert run.main(argv, reference_path=reference, sizes=sizes) == 0
    assert "reference digest: matched" in capsys.readouterr().out

    table = json.loads(reference.read_text())
    good = table["fleet_replan"]["seeds"]["3"]
    table["fleet_replan"]["seeds"]["3"] = ("1" if good[0] == "0" else "0") + good[1:]
    reference.write_text(json.dumps(table))
    assert run.main(argv, reference_path=reference, sizes=sizes) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_fails_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "perf",
        tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fleet_replan"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.8, 10.1, 9.9]
    assert compare.verdict(parent, [8.0] * 5, True, 0.1, 1.0) == "better"
    assert compare.verdict(parent, [12.0] * 5, True, 0.1, 0.0) == "worse"
    assert compare.verdict(parent, [10.05, 9.95, 10.0, 10.1, 9.9], True, 0.1, 0.4) == "same"
    noisy = [5.0, 10.0, 15.0, 20.0, 8.0]
    assert compare.verdict(noisy, [9.0, 11.0, 14.0, 21.0, 9.0], True, 0.1, 0.4) == "unresolved"
    # A noisy change is unresolved against a quiet parent too.
    assert compare.verdict(parent, noisy, True, 0.1, 0.4) == "unresolved"
    # Higher-is-better metrics flip the comparison.
    assert compare.verdict(parent, [12.0] * 5, False, 0.1, 1.0) == "better"
    assert compare.verdict(parent, [9.6, 9.8, 10.0, 10.3, 9.7], False, 0.1, 0.2) == "same"


def _results(path, values, correct=True, failed=0):
    runs = [
        {
            "workload": "fleet_replan",
            "seed": seed,
            "trace": 0,
            "reference": "matched",
            "result": {
                "correct": correct,
                "attempted": 100,
                "failed": failed,
                "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}},
            },
        }
        for seed, value in enumerate(values)
    ]
    path.write_text(json.dumps({"runs": runs}))
    return path


def test_compare_fails_incorrect_runs_and_voids_gains_with_more_failures(tmp_path):
    parent = _results(tmp_path / "parent.json", [10.0, 10.2, 9.8, 10.1, 9.9])
    faster = [8.0, 8.1, 7.9, 8.0, 8.2]

    def decide(change) -> str:
        [row] = compare.compare(parent, change)
        return row["verdict"]

    assert decide(_results(tmp_path / "a.json", faster)) == "better"
    more_failures = _results(tmp_path / "b.json", faster, failed=3)
    assert decide(more_failures) == "same"
    assert compare.main([str(parent), str(more_failures)]) == 0
    incorrect = _results(tmp_path / "c.json", faster, correct=False)
    assert decide(incorrect) == "failed"
    assert compare.main([str(parent), str(incorrect)]) == 1
