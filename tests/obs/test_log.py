"""Flight recorder tests: ring buffer, span correlation, crash dumps."""

import json

import pytest

from repro.cloud.executor import ExecutionPolicy, PlanExecutor
from repro.cloud.faults import FaultProfile
from repro.cloud.instance import InstanceFamily, VMConfig
from repro.cloud.provisioner import DeploymentPlan
from repro.eda.job import EDAStage
from repro.obs import Logger, MetricsRegistry, Tracer, get_logger, scoped
from repro.obs.log import (
    CRASH_SCHEMA,
    LEVELS,
    build_crash_report,
    crash_dump_path,
    crash_scope,
    default_crash_dir,
    write_crash_report,
)


class TestLogger:
    def test_records_carry_level_message_and_fields(self):
        log = Logger(deterministic=True)
        record = log.info("executor.flow_start", design="ctrl", stages=4)
        assert record.level == "info"
        assert record.message == "executor.flow_start"
        assert record.fields == {"design": "ctrl", "stages": 4}
        assert record.seq == 0
        assert record.time == 0.0

    def test_ring_buffer_is_bounded(self):
        log = Logger(capacity=8, deterministic=True)
        for i in range(20):
            log.debug("tick", i=i)
        tail = log.tail()
        assert len(tail) == 8
        # Oldest records fell off the front; seq numbers keep counting.
        assert [r.fields["i"] for r in tail] == list(range(12, 20))
        assert tail[-1].seq == 19

    def test_tail_n_returns_most_recent(self):
        log = Logger(deterministic=True)
        for i in range(5):
            log.debug("tick", i=i)
        assert [r.fields["i"] for r in log.tail(2)] == [3, 4]

    def test_level_threshold_filters(self):
        log = Logger(deterministic=True, level="warn")
        assert log.debug("quiet") is None
        assert log.info("quiet") is None
        assert log.warn("loud") is not None
        assert log.error("loud") is not None
        assert len(log.tail()) == 2

    def test_disabled_logger_records_nothing(self):
        log = Logger(deterministic=True, enabled=False)
        assert log.info("nope") is None
        assert log.tail() == []

    def test_default_logger_starts_disabled(self):
        assert get_logger().enabled is False

    def test_span_correlation(self):
        tracer = Tracer(deterministic=True)
        log = Logger(deterministic=True)
        with scoped(tracer=tracer, log=log):
            outside = log.info("outside")
            with tracer.span("work") as span:
                inside = log.info("inside")
        assert outside.span_id is None
        assert inside.span_id == span.span_id

    def test_deterministic_clock_is_private(self):
        # The logger's tick clock must not advance the tracer's.
        tracer = Tracer(deterministic=True)
        log = Logger(deterministic=True)
        with scoped(tracer=tracer, log=log):
            log.info("one")
            log.info("two")
            with tracer.span("work"):
                pass
        assert tracer.spans[0].start == 0.0

    def test_reset_clears_records_and_seq(self):
        log = Logger(deterministic=True)
        log.info("x")
        log.reset()
        assert log.tail() == []
        assert log.info("y").seq == 0

    def test_bad_capacity_and_level_rejected(self):
        with pytest.raises(ValueError):
            Logger(capacity=0)
        with pytest.raises(ValueError):
            Logger(level="shout")

    def test_levels_are_ordered(self):
        assert LEVELS["debug"] < LEVELS["info"] < LEVELS["warn"] < LEVELS["error"]

    def test_record_to_dict_sorts_fields(self):
        log = Logger(deterministic=True)
        record = log.info("m", zebra=1, alpha=2)
        assert list(record.to_dict()["fields"]) == ["alpha", "zebra"]


class TestCrashReport:
    def test_build_report_shape(self):
        tracer = Tracer(deterministic=True)
        log = Logger(deterministic=True)
        registry = MetricsRegistry()
        with scoped(tracer=tracer, metrics=registry, log=log):
            log.info("before")
            doc = build_crash_report(
                "unit", 7, logger=log, tracer=tracer, metrics=registry
            )
        assert doc["schema"] == CRASH_SCHEMA
        assert doc["component"] == "unit"
        assert doc["seed"] == 7
        assert doc["deterministic"] is True
        assert [r["message"] for r in doc["records"]] == ["before"]
        assert "exception" not in doc

    def test_open_span_stack_survives_unwinding(self):
        # Span context managers pop in `finally` during unwinding, so the
        # stack must be captured keyed by exception identity.
        tracer = Tracer(deterministic=True)
        log = Logger(deterministic=True)
        registry = MetricsRegistry()
        with scoped(tracer=tracer, metrics=registry, log=log):
            try:
                with tracer.span("outer"):
                    with tracer.span("inner"):
                        raise RuntimeError("boom")
            except RuntimeError as exc:
                doc = build_crash_report(
                    "unit", 0, exc=exc,
                    logger=log, tracer=tracer, metrics=registry,
                )
        assert [s["name"] for s in doc["open_spans"]] == ["outer", "inner"]
        assert doc["exception"] == {"type": "RuntimeError", "message": "boom"}

    def test_dump_path_is_deterministic(self):
        assert crash_dump_path("d", "verify.mckp", 42) == (
            "d/crash_verify.mckp_42.json"
        )

    def test_default_dir_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CRASH_DIR", "/tmp/xyz")
        assert default_crash_dir() == "/tmp/xyz"
        monkeypatch.delenv("REPRO_CRASH_DIR")
        assert default_crash_dir().endswith("crashes")

    def test_write_report_sorted_keys(self, tmp_path):
        doc = {"schema": CRASH_SCHEMA, "component": "c", "seed": 1, "b": 2, "a": 1}
        path = write_crash_report(doc, str(tmp_path))
        text = open(path).read()
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text)["component"] == "c"

    def test_crash_scope_noop_when_logger_disabled(self, tmp_path, capsys):
        # Global logger is disabled by default: no dump, exception intact.
        with pytest.raises(RuntimeError):
            with crash_scope("unit", 0, directory=str(tmp_path)):
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_crash_scope_dumps_and_reraises(self, tmp_path, capsys):
        log = Logger(deterministic=True)
        with scoped(
            tracer=Tracer(deterministic=True),
            metrics=MetricsRegistry(),
            log=log,
        ):
            log.info("last words", n=1)
            with pytest.raises(RuntimeError):
                with crash_scope("unit", 9, directory=str(tmp_path)):
                    raise RuntimeError("boom")
        path = tmp_path / "crash_unit_9.json"
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["exception"]["type"] == "RuntimeError"
        assert doc["records"][-1]["message"] == "last words"
        err = capsys.readouterr().err
        assert "seed=9" in err and str(path) in err

    def test_crash_scope_happy_path_writes_nothing(self, tmp_path):
        with scoped(
            tracer=Tracer(deterministic=True),
            metrics=MetricsRegistry(),
            log=Logger(deterministic=True),
        ):
            with crash_scope("unit", 0, directory=str(tmp_path)):
                pass
        assert list(tmp_path.iterdir()) == []


def _failing_executor_run(directory):
    """One tick-clock executor run with a forced internal exception."""
    vm = VMConfig(
        name="gp.4x",
        family=InstanceFamily.GENERAL_PURPOSE,
        vcpus=4,
        memory_gb=16.0,
        price_per_hour=0.2,
    )
    plan = DeploymentPlan(design="crash")
    plan.add(EDAStage.SYNTHESIS, vm, 10.0)
    executor = PlanExecutor(profile=FaultProfile.calm(), policy=ExecutionPolicy())
    executor._run_stage = lambda *a, **k: (_ for _ in ()).throw(
        RuntimeError("forced")
    )
    tracer = Tracer(deterministic=True)
    log = Logger(deterministic=True)
    with scoped(tracer=tracer, metrics=MetricsRegistry(), log=log):
        with pytest.raises(RuntimeError):
            # crash_scope inside execute() writes to $REPRO_CRASH_DIR.
            executor.execute(plan, deadline_seconds=100.0, seed=7)
    return directory / "crash_executor_7.json"


class TestExecutorCrashDumpDeterminism:
    def test_same_seed_dumps_are_byte_identical(self, tmp_path, monkeypatch, capsys):
        # Acceptance: a forced executor exception under tick-clock mode
        # produces a crash dump whose record sequence and open-span stack
        # are byte-identical across two runs with the same seed.
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        monkeypatch.setenv("REPRO_CRASH_DIR", str(dir_a))
        path_a = _failing_executor_run(dir_a)
        monkeypatch.setenv("REPRO_CRASH_DIR", str(dir_b))
        path_b = _failing_executor_run(dir_b)
        bytes_a = path_a.read_bytes()
        bytes_b = path_b.read_bytes()
        assert bytes_a == bytes_b
        doc = json.loads(bytes_a)
        assert doc["schema"] == CRASH_SCHEMA
        assert doc["exception"] == {"type": "RuntimeError", "message": "forced"}
        assert [s["name"] for s in doc["open_spans"]] == ["execute"]
        assert [r["message"] for r in doc["records"]] == ["executor.flow_start"]
