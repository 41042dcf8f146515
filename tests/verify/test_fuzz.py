"""Tests for the seeded fuzz driver: determinism, replay, and longer runs."""

import json

import pytest

from repro.verify import ORACLES, run_fuzz, run_trial, trial_seed
from repro.verify.fuzz import (
    FuzzFailure,
    FuzzReport,
    OracleReport,
    dump_trial_forensics,
)


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = run_fuzz(trials=25, seed=0)
        b = run_fuzz(trials=25, seed=0)
        assert a.render() == b.render()
        assert a.ok and b.ok

    def test_trial_seeds_are_stable_and_distinct(self):
        seeds = [trial_seed(0, "mckp", t) for t in range(50)]
        assert seeds == [trial_seed(0, "mckp", t) for t in range(50)]
        assert len(set(seeds)) == 50
        # Different oracle or base seed shifts the stream.
        assert trial_seed(0, "mckp", 0) != trial_seed(0, "schedule", 0)
        assert trial_seed(0, "mckp", 0) != trial_seed(1, "mckp", 0)

    def test_replay_matches_fuzz_trial(self):
        for trial in range(5):
            seed = trial_seed(0, "schedule", trial)
            assert run_trial("schedule", seed) == []


class TestDriver:
    def test_all_oracles_registered(self):
        assert list(ORACLES) == [
            "mckp",
            "schedule",
            "aig",
            "cuts",
            "spot",
            "executor",
            "convergence",
            "obs",
            "service",
            "fleet",
            "attrib",
            "slo",
        ]

    def test_oracle_subset(self):
        report = run_fuzz(oracle_names=["spot"], trials=10, seed=3)
        assert [o.name for o in report.oracles] == ["spot"]
        assert report.oracles[0].trials == 10

    def test_unknown_oracle_rejected(self):
        with pytest.raises(ValueError, match="unknown oracle"):
            run_fuzz(oracle_names=["nope"], trials=1)
        with pytest.raises(ValueError, match="unknown oracle"):
            run_trial("nope", 0)

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            run_fuzz(trials=0)

    def test_progress_callback(self):
        lines = []
        run_fuzz(oracle_names=["spot", "mckp"], trials=5, seed=0,
                 progress=lines.append)
        assert len(lines) == 2
        assert "spot" in lines[0] and "mckp" in lines[1]

    def test_failure_rendering(self):
        report = FuzzReport(base_seed=0, trials_per_oracle=1)
        report.oracles.append(
            OracleReport(
                name="mckp",
                trials=1,
                failures=[
                    FuzzFailure(
                        oracle="mckp",
                        trial=0,
                        seed=42,
                        messages=("objective off by 1",),
                    )
                ],
            )
        )
        text = report.render()
        assert not report.ok
        assert report.num_violations == 1
        assert "--replay-seed 42" in text
        assert "objective off by 1" in text
        assert text.endswith("FAIL: 1 oracles, 1 trials, 1 violations")

    def test_failure_rendering_includes_dump_path(self):
        report = FuzzReport(base_seed=0, trials_per_oracle=1)
        report.oracles.append(
            OracleReport(
                name="mckp",
                trials=1,
                failures=[
                    FuzzFailure(
                        oracle="mckp",
                        trial=0,
                        seed=42,
                        messages=("objective off by 1",),
                        dump_path="crashes/crash_verify.mckp_42.json",
                    )
                ],
            )
        )
        text = report.render()
        assert "--replay-seed 42; dump: crashes/crash_verify.mckp_42.json" in text


class TestForensicsDumps:
    def test_dump_is_byte_identical_across_replays(self, tmp_path):
        # The fuzz run's dump and a later `--replay-seed` dump must be the
        # same bytes: the forensics scope is fully isolated and tick-clocked.
        seed = trial_seed(3, "mckp", 0)
        path_a = dump_trial_forensics("mckp", seed, str(tmp_path / "a"))
        path_b = dump_trial_forensics("mckp", seed, str(tmp_path / "b"))
        bytes_a = open(path_a, "rb").read()
        assert bytes_a == open(path_b, "rb").read()
        doc = json.loads(bytes_a)
        assert doc["schema"] == "repro-crash/1"
        assert doc["component"] == "verify.mckp"
        assert doc["seed"] == seed
        assert doc["messages"] == []
        assert doc["records"][0]["message"] == "verify.trial"

    def test_dump_carries_violations(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ORACLES, "boom", lambda rng: ["it broke"])
        path = dump_trial_forensics("boom", 5, str(tmp_path))
        doc = json.loads(open(path).read())
        assert doc["messages"] == ["it broke"]

    def test_dump_unknown_oracle_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown oracle"):
            dump_trial_forensics("nope", 0, str(tmp_path))

    def test_failing_fuzz_run_writes_dumps(self, tmp_path, monkeypatch):
        monkeypatch.setitem(ORACLES, "boom", lambda rng: ["it broke"])
        report = run_fuzz(
            oracle_names=["boom"], trials=2, seed=0,
            dump_dir=str(tmp_path),
        )
        assert not report.ok
        for failure in report.oracles[0].failures:
            assert failure.dump_path is not None
            assert (
                failure.dump_path
                == str(tmp_path / f"crash_verify.boom_{failure.seed}.json")
            )
            assert json.loads(open(failure.dump_path).read())["messages"] == [
                "it broke"
            ]
        assert "dump:" in report.render()

    def test_no_dump_dir_no_dump_paths(self, monkeypatch):
        monkeypatch.setitem(ORACLES, "boom", lambda rng: ["it broke"])
        report = run_fuzz(oracle_names=["boom"], trials=1, seed=0)
        assert report.oracles[0].failures[0].dump_path is None


@pytest.mark.fuzz
class TestLongFuzz:
    """Longer sweeps; deselect with ``-m "not fuzz"`` for quick runs."""

    def test_300_trials_per_oracle(self):
        report = run_fuzz(trials=300, seed=1)
        assert report.ok, report.render()

    def test_alternate_base_seeds(self):
        for seed in (11, 29, 57):
            report = run_fuzz(trials=60, seed=seed)
            assert report.ok, report.render()
