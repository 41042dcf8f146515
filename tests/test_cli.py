"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_characterize_defaults(self):
        args = build_parser().parse_args(["characterize"])
        assert args.design == "sparc_core"
        assert args.vcpus == [1, 2, 4, 8]

    def test_optimize_deadlines(self):
        args = build_parser().parse_args(
            ["optimize", "--deadlines", "1000", "2000"]
        )
        assert args.deadlines == [1000.0, 2000.0]

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_benchmarks_lists_designs(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "sparc_core" in out
        assert "openpiton" in out
        assert "multiplier" in out

    def test_flow_small_design(self, capsys, tmp_path):
        verilog = tmp_path / "out.v"
        code = main(
            [
                "flow",
                "--design",
                "ctrl",
                "--scale",
                "0.4",
                "--verilog-out",
                str(verilog),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Synthesis" in out
        assert "critical path" in out
        assert verilog.exists()
        assert "module" in verilog.read_text()

    def test_flow_custom_recipe(self, capsys):
        assert main(["flow", "--design", "dec", "--scale", "0.5", "--recipe", "balance"]) == 0
        assert "Routing" in capsys.readouterr().out

    def test_characterize_small(self, capsys):
        code = main(
            [
                "characterize",
                "--design",
                "router",
                "--scale",
                "0.5",
                "--sample-rate",
                "8",
                "--vcpus",
                "1",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Branch misses" in out
        assert "Speedup" in out

    def test_optimize_small(self, capsys):
        code = main(
            [
                "optimize",
                "--design",
                "router",
                "--scale",
                "0.5",
                "--sample-rate",
                "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Recommended configuration" in out
        assert "saves" in out

    def test_predict_saves_loadable_models(self, capsys, tmp_path):
        from repro.core.persistence import load_suite
        from repro.eda.job import EDAStage

        path = tmp_path / "models.npz"
        code = main(
            [
                "predict",
                "--variants",
                "1",
                "--dataset-scale",
                "0.1",
                "--epochs",
                "2",
                "--save",
                str(path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        accuracy = [line.split() for line in out.splitlines() if " accuracy " in line]
        assert [words[0] for words in accuracy] == [s.value for s in EDAStage.ordered()]
        assert f"models saved to {path}" in out
        assert set(load_suite(str(path)).predictors) == set(EDAStage.ordered())


class TestVerifyCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert args.trials == 200
        assert args.seed == 0
        assert args.oracle is None
        assert args.replay_seed is None

    def test_list_oracles(self, capsys):
        assert main(["verify", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("mckp", "schedule", "aig", "cuts", "spot", "executor",
                     "convergence", "obs", "service"):
            assert name in out
        assert "scenario" not in out

    def test_small_run_passes(self, capsys):
        assert main(["verify", "--trials", "10", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS: 12 oracles, 120 trials, 0 violations" in out

    def test_run_is_deterministic(self, capsys):
        main(["verify", "--trials", "8"])
        first = capsys.readouterr().out
        main(["verify", "--trials", "8"])
        assert capsys.readouterr().out == first

    def test_oracle_subset(self, capsys):
        assert main(["verify", "--trials", "5", "--oracle", "spot"]) == 0
        out = capsys.readouterr().out
        assert "1 oracles, 5 trials" in out

    def test_unknown_oracle_is_usage_error(self, capsys):
        assert main(["verify", "--trials", "1", "--oracle", "nope"]) == 2

    def test_replay_requires_single_oracle(self, capsys):
        assert main(["verify", "--replay-seed", "1"]) == 2

    def test_replay_passing_seed(self, capsys):
        code = main(
            ["verify", "--oracle", "schedule", "--replay-seed", "12345"]
        )
        assert code == 0
        assert "ok" in capsys.readouterr().out


class TestExecuteCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["execute"])
        assert args.design == "sparc_core"
        assert args.profile == "calm"
        assert args.seed == 0
        assert args.deadline is None
        assert args.max_preemptions == 3
        assert not args.spot and not args.trace

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["execute", "--profile", "volcanic"])

    def test_fault_free_execution_completes(self, capsys):
        code = main(
            [
                "execute",
                "--design",
                "router",
                "--scale",
                "0.5",
                "--sample-rate",
                "8",
                "--profile",
                "none",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "deadline" in out

    def test_spot_execution_with_trace(self, capsys):
        code = main(
            [
                "execute",
                "--design",
                "router",
                "--scale",
                "0.5",
                "--sample-rate",
                "8",
                "--profile",
                "heavy",
                "--spot",
                "--trace",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution trace" in out
        assert "flow_complete" in out


class TestErrorPaths:
    def test_unknown_subcommand_exits_with_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_report_corrupt_store_is_named_error(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store.write_text('{"schema": "repro-runs/99", "kind": "bench"}\n')
        assert main(["report", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "schema mismatch" in err
        assert "repro-runs/99" in err
        assert "KeyError" not in err

    def test_report_undecodable_store_reports_line(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        store.write_text("{broken\n")
        assert main(["report", "--store", str(store)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_report_empty_store_exits_zero(self, tmp_path, capsys):
        store = tmp_path / "absent.jsonl"
        assert main(["report", "--store", str(store)]) == 0
        assert "no runs" in capsys.readouterr().out

    def test_report_bad_window_is_usage_error(self, tmp_path, capsys):
        assert main(
            ["report", "--store", str(tmp_path / "x.jsonl"), "--window", "0"]
        ) == 2


class TestStoreAndReport:
    def _serve(self, tmp_path, rev, timestamp):
        return [
            "serve", "--seed", "0", "--jobs", "3", "--kinds", "execute",
            "--rev", rev, "--store", str(tmp_path / "runs.jsonl"),
            "--timestamp", timestamp,
        ]

    def test_serve_appends_to_store(self, tmp_path, capsys):
        assert main(self._serve(tmp_path, "r1", "2026-08-06T00:00:00Z")) == 0
        out = capsys.readouterr().out
        assert "4 records appended to" in out
        store = tmp_path / "runs.jsonl"
        assert store.exists()
        assert len(store.read_text().splitlines()) == 4

    def test_serve_no_store_skips_append(self, tmp_path, capsys):
        args = self._serve(tmp_path, "r1", "2026-08-06T00:00:00Z")
        assert main(args + ["--no-store"]) == 0
        assert "records appended" not in capsys.readouterr().out
        assert not (tmp_path / "runs.jsonl").exists()

    def test_report_over_three_runs_flags_injected_drift(
        self, tmp_path, capsys
    ):
        # Acceptance: a 3-session store with injected billed-cost drift
        # makes `repro report` exit 1 with a deterministic-drift flag.
        for i, rev in enumerate(("r1", "r2", "r3")):
            assert main(
                self._serve(tmp_path, rev, f"2026-08-06T0{i}:00:00Z")
            ) == 0
        capsys.readouterr()
        store = tmp_path / "runs.jsonl"
        assert main(["report", "--store", str(store)]) == 0
        clean = capsys.readouterr().out
        assert "12 runs" in clean
        assert "bit-stable" in clean
        # Inject drift into the last session's last job's billed cost.
        lines = store.read_text().splitlines()
        index = max(
            i for i, line in enumerate(lines)
            if json.loads(line)["kind"] == "service.job"
        )
        doc = json.loads(lines[index])
        assert doc["metrics"]["counters"]["executor.billed_cost"] > 0
        doc["metrics"]["counters"]["executor.billed_cost"] *= 1.5
        lines[index] = json.dumps(doc, sort_keys=True)
        store.write_text("\n".join(lines) + "\n")
        assert main(["report", "--store", str(store)]) == 1
        drifted = capsys.readouterr().out
        assert "DETERMINISTIC DRIFT" in drifted
        assert "executor.billed_cost" in drifted

    def test_report_html_output(self, tmp_path, capsys):
        assert main(self._serve(tmp_path, "r1", "2026-08-06T00:00:00Z")) == 0
        html_path = tmp_path / "report.html"
        assert main(
            [
                "report", "--store", str(tmp_path / "runs.jsonl"),
                "--html", str(html_path),
            ]
        ) == 0
        assert "HTML dashboard written" in capsys.readouterr().out
        html = html_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_report_metric_filter(self, tmp_path, capsys):
        assert main(self._serve(tmp_path, "r1", "2026-08-06T00:00:00Z")) == 0
        capsys.readouterr()
        assert main(
            [
                "report", "--store", str(tmp_path / "runs.jsonl"),
                "--metric", "service.",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "service.job.total_cost" in out
        assert "executor.billed_cost" not in out


class TestVerifyReplayDump:
    def test_failing_replay_prints_dump_path(self, tmp_path, capsys, monkeypatch):
        from repro.verify.fuzz import ORACLES

        monkeypatch.setitem(ORACLES, "boom", lambda rng: ["it broke"])
        code = main(
            [
                "verify", "--oracle", "boom", "--replay-seed", "77",
                "--dump-dir", str(tmp_path),
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "replay boom@77: FAIL" in out
        assert "dump:" in out
        assert "it broke" in out
        dump = tmp_path / "crash_verify.boom_77.json"
        assert dump.exists()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.jobs == 20
        assert args.workers == 2
        assert args.queue_depth == 64
        assert args.priorities == [0, 1]
        assert args.kinds == ["execute", "flow", "plan"]
        assert args.rate_capacity is None

    def test_submit_defaults(self):
        args = build_parser().parse_args(["submit"])
        assert args.kind == "execute"
        assert args.client == "cli"
        assert args.timeout is None


class TestServeCommand:
    def test_serve_runs_a_seeded_batch(self, tmp_path, capsys):
        code = main(
            [
                "serve", "--seed", "3", "--jobs", "6",
                "--kinds", "sleep", "--no-store",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "6 admitted, 0 rejected" in out
        assert "all 6 jobs terminal" in out
        assert out.count("job-") == 6

    def test_serve_log_is_byte_stable_across_runs(self, tmp_path, capsys):
        logs = []
        for name in ("a.log", "b.log"):
            path = tmp_path / name
            assert main(
                [
                    "serve", "--seed", "5", "--jobs", "8",
                    "--kinds", "sleep", "--no-store",
                    "--log", str(path),
                ]
            ) == 0
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_serve_reports_typed_rejections(self, capsys):
        code = main(
            [
                "serve", "--seed", "1", "--jobs", "10",
                "--kinds", "sleep", "--queue-depth", "4", "--no-store",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 admitted, 6 rejected" in out
        assert "rejected [queue_full]: 6 request(s)" in out

    def test_serve_persists_job_records(self, tmp_path, capsys):
        store = tmp_path / "runs.jsonl"
        code = main(
            [
                "serve", "--seed", "2", "--jobs", "4", "--kinds", "sleep",
                "--store", str(store),
                "--timestamp", "2026-08-08T00:00:00Z",
                "--rev", "test",
            ]
        )
        assert code == 0
        from repro.obs.store import RunStore, filter_runs

        runs = RunStore(store).load()
        assert len(runs) == 5  # 4 jobs + 1 session record
        assert len(filter_runs(runs, kinds=["service.job"])) == 4
        session = filter_runs(runs, kinds=["service"])
        assert [r.kind for r in session] == ["service.job"] * 4 + ["service"]


class TestSubmitCommand:
    def test_submit_sleep_prints_job_document(self, capsys):
        code = main(["submit", "--kind", "sleep"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["job_id"] == "job-0000"
        assert doc["state"] == "done"
        assert doc["result"]["kind"] == "sleep"

    def test_submit_unknown_kind_is_a_typed_400(self, capsys):
        code = main(["submit", "--kind", "bogus"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid_request"
        assert doc["error"]["status"] == 400

    def test_submit_invalid_scale_is_rejected(self, capsys):
        code = main(["submit", "--kind", "flow", "--scale", "0"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["code"] == "invalid_request"


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.flows == 10000
        assert args.menus == 16
        assert args.deadline_buckets == 8
        assert args.mode == "exact"
        assert args.ticks == 0
        assert args.min_throughput is None

    def test_batch_plan_prints_summary(self, capsys):
        code = main(["fleet", "--flows", "500", "--menus", "4", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro-fleet/1 mode=exact flows=500" in out
        assert "500 flows in" in out
        assert "planned" in out and "flows/sec" in out

    def test_dump_is_deterministic(self, tmp_path, capsys):
        dumps = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            assert main(
                [
                    "fleet", "--flows", "400", "--menus", "3",
                    "--seed", "7", "--mode", "approx",
                    "--dump", str(path),
                ]
            ) == 0
            dumps.append(path.read_bytes())
        capsys.readouterr()
        assert dumps[0] == dumps[1]

    def test_session_mode_prints_tick_lines(self, capsys):
        code = main(
            [
                "fleet", "--flows", "60", "--menus", "3", "--seed", "2",
                "--ticks", "3", "--execute-per-tick", "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "repro-fleet-session/1 seed=2" in out
        assert out.count("tick=") == 3

    def test_min_throughput_gate_fails(self, capsys):
        # No planner hits 10^12 flows/sec; the gate must trip.
        code = main(
            [
                "fleet", "--flows", "200", "--menus", "2",
                "--min-throughput", "1000000000000",
            ]
        )
        assert code == 1
        assert "below --min-throughput" in capsys.readouterr().err

    def test_bad_args_are_usage_errors(self, capsys):
        assert main(["fleet", "--flows", "0"]) == 2
        assert main(["fleet", "--ticks", "-1"]) == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--mode", "magic"])


class TestVerifyCorpusCLI:
    def test_replay_clean_corpus_passes(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("mckp:42\nfleet:1\n")
        code = main(["verify", "--corpus", str(corpus)])
        assert code == 0
        out = capsys.readouterr().out
        assert "corpus mckp@42: ok" in out
        assert "corpus fleet@1: ok" in out
        assert "PASS: 2 corpus entries, 0 regressed" in out

    def test_malformed_corpus_is_usage_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("not a corpus line\n")
        code = main(["verify", "--corpus", str(corpus)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_record_corpus_on_clean_run_writes_nothing(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        code = main(
            [
                "verify", "--oracle", "mckp", "--trials", "5",
                "--seed", "0", "--record-corpus", str(corpus),
            ]
        )
        assert code == 0
        capsys.readouterr()
        assert not corpus.exists()

    def test_record_corpus_captures_failures(self, tmp_path, capsys, monkeypatch):
        from repro.verify import fuzz

        def broken_oracle(rng):
            return ["synthetic violation"]

        monkeypatch.setitem(fuzz.ORACLES, "mckp", broken_oracle)
        corpus = tmp_path / "corpus.txt"
        dumps = tmp_path / "crashes"
        code = main(
            [
                "verify", "--oracle", "mckp", "--trials", "3",
                "--seed", "0", "--record-corpus", str(corpus),
                "--dump-dir", str(dumps),
            ]
        )
        assert code == 1
        capsys.readouterr()
        from repro.verify import load_corpus

        entries = load_corpus(str(corpus))
        assert len(entries) == 3
        assert all(e.oracle == "mckp" for e in entries)
        crashes = sorted(p.name for p in dumps.iterdir())
        assert len(crashes) == 3
        assert all(n.startswith("crash_verify.mckp_") for n in crashes)


class TestSloCommand:
    SPEC = "benchmarks/slo/service.json"

    def _store(self, tmp_path, seed=7):
        store = tmp_path / "runs.jsonl"
        assert main(
            [
                "serve", "--seed", str(seed), "--jobs", "10",
                "--store", str(store),
                "--timestamp", "2026-08-08T00:00:00Z",
            ]
        ) == 0
        return store

    def test_passing_spec_exits_zero(self, tmp_path, capsys):
        store = self._store(tmp_path)
        code = main(
            ["slo", "--spec", self.SPEC, "--store", str(store)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "SLO 'service-batch'" in out
        assert "deadline-hit-rate" in out

    def test_violated_spec_exits_one(self, tmp_path, capsys):
        store = self._store(tmp_path)
        spec = tmp_path / "strict.json"
        doc = json.loads(open(self.SPEC).read())
        doc["objectives"][2]["budget"] = 1e-9
        spec.write_text(json.dumps(doc))
        code = main(["slo", "--spec", str(spec), "--store", str(store)])
        assert code == 1
        assert "VIOLATED" in capsys.readouterr().out

    def test_missing_spec_exits_two(self, tmp_path, capsys):
        store = self._store(tmp_path)
        code = main(
            [
                "slo", "--spec", str(tmp_path / "absent.json"),
                "--store", str(store),
            ]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_bad_spec_exits_two(self, tmp_path, capsys):
        store = self._store(tmp_path)
        spec = tmp_path / "bad.json"
        spec.write_text('{"schema": "repro-slo/1", "name": "x"}')
        code = main(["slo", "--spec", str(spec), "--store", str(store)])
        assert code == 2

    def test_dump_is_byte_identical_across_invocations(self, tmp_path, capsys):
        store = self._store(tmp_path)
        dumps = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert main(
                [
                    "slo", "--spec", self.SPEC, "--store", str(store),
                    "--window", "4", "--dump", str(path),
                ]
            ) == 0
            dumps.append(path.read_bytes())
        capsys.readouterr()
        assert dumps[0] == dumps[1]
        doc = json.loads(dumps[0])
        assert doc["schema"] == "repro-slo-report/1"
        assert doc["records"] == 11  # 10 jobs + 1 session record

    def test_openmetrics_output_parses(self, tmp_path, capsys):
        from repro.obs.export import parse_openmetrics

        store = self._store(tmp_path)
        out = tmp_path / "metrics.om"
        code = main(
            [
                "slo", "--spec", self.SPEC, "--store", str(store),
                "--openmetrics", str(out),
            ]
        )
        assert code == 0
        capsys.readouterr()
        families = parse_openmetrics(out.read_text())
        assert "service_latency_ticks" in families

    def test_window_must_be_non_negative(self, tmp_path, capsys):
        store = self._store(tmp_path)
        code = main(
            [
                "slo", "--spec", self.SPEC, "--store", str(store),
                "--window", "-1",
            ]
        )
        assert code == 2


class TestTraceCli:
    def test_trace_flow_prints_tree_and_exports(self, tmp_path, capsys):
        json_out = tmp_path / "trace.json"
        chrome_out = tmp_path / "chrome.json"
        code = main(
            [
                "trace", "--design", "ctrl", "--scale", "0.2",
                "--deterministic",
                "--json", str(json_out), "--chrome", str(chrome_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "flow" in out and "stage.synthesis" in out
        doc = json.loads(json_out.read_text())
        assert doc["schema"] == "repro-trace/1"
        chrome = json.loads(chrome_out.read_text())
        assert any(e["ph"] == "X" for e in chrome["traceEvents"])

    def test_trace_execute_workload(self, capsys):
        code = main(
            [
                "trace", "--workload", "execute", "--design", "ctrl",
                "--scale", "0.2", "--profile", "heavy", "--seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execute" in out
        assert "executor.billed_seconds" in out
        assert "total self time" in out

    def _trace_folded(self, tmp_path, tag):
        folded = tmp_path / f"{tag}.folded"
        args = [
            "trace", "--workload", "flow", "--design", "ctrl",
            "--scale", "0.2", "--seed", "0", "--deterministic",
            "--folded", str(folded),
        ]
        assert main(args) == 0
        return folded

    def test_same_seed_folded_byte_identical(self, tmp_path, capsys):
        a = self._trace_folded(tmp_path, "a")
        b = self._trace_folded(tmp_path, "b")
        out = capsys.readouterr().out
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("flow ")
        # The self-time table names the synthesis stage's frame path.
        assert "flow/stage.synthesis" in out
        assert f"folded stacks written to {a}" in out
