"""Unit tests for the span tracer: nesting, determinism, no-op mode."""

import threading

import pytest

from repro.obs import (
    NULL_SPAN,
    TickClock,
    Tracer,
    get_tracer,
    scoped,
    traced,
    well_nested_violations,
)


class TestSpanBasics:
    def test_parent_child_nesting(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                assert tracer.current() is child
            assert tracer.current() is root
        assert tracer.current() is None
        assert child.parent_id == root.span_id
        assert root.parent_id is None
        assert [s.name for s in tracer.roots()] == ["root"]
        assert [s.name for s in tracer.children_of(root)] == ["child"]

    def test_tags_and_events(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("work", design="fpu") as span:
            span.set_tag("k", 1)
            span.set_tags(a=2, b=3)
            tracer.event("fault", kind="boot")
        assert span.tags == {"design": "fpu", "k": 1, "a": 2, "b": 3}
        assert [e.name for e in span.events] == ["fault"]
        assert span.events[0].tags == {"kind": "boot"}

    def test_add_event_defaults_to_tracer_clock(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("work") as span:
            span.add_event("direct", kind="manual")
        event = span.events[0]
        assert event.name == "direct"
        assert event.tags == {"kind": "manual"}
        # The default timestamp comes from the tracer's (tick) clock, so
        # the event lands inside the span, not at time 0.
        assert span.start <= event.time <= span.end
        assert well_nested_violations(tracer.spans) == []

    def test_add_event_explicit_time_preserved(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("work") as span:
            span.add_event("pinned", time=0.25)
        assert span.events[0].time == 0.25

    def test_null_span_add_event_accepts_same_signature(self):
        span = NULL_SPAN
        assert span.add_event("ignored") is None
        assert span.add_event("ignored", time=1.0, kind="x") is None
        assert span.events == []

    def test_orphan_event_kept(self):
        tracer = Tracer(deterministic=True)
        tracer.event("stray", x=1)
        assert [e.name for e in tracer.orphan_events] == ["stray"]

    def test_span_closes_on_exception(self):
        tracer = Tracer(deterministic=True)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.spans[0].finished
        assert tracer.current() is None

    def test_find_and_reset(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            pass
        with tracer.span("a"):
            pass
        assert len(tracer.find("a")) == 2
        tracer.reset()
        assert tracer.spans == [] and tracer.orphan_events == []


class TestDeterminism:
    def test_tick_clock_counts(self):
        clock = TickClock()
        assert [clock() for _ in range(3)] == [0.0, 1.0, 2.0]

    def test_deterministic_traces_are_identical(self):
        def run():
            tracer = Tracer(deterministic=True)
            with tracer.span("outer", n=1):
                with tracer.span("inner"):
                    tracer.event("tick")
            return [
                (s.span_id, s.parent_id, s.name, s.start, s.end)
                for s in tracer.spans
            ]

        assert run() == run()

    def test_ids_allocate_in_start_order(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        assert [s.span_id for s in tracer.spans] == [0, 1, 2]

    def test_monotonic_default_clock(self):
        tracer = Tracer()
        with tracer.span("t") as span:
            pass
        assert span.end >= span.start >= 0.0


class TestDisabledTracer:
    def test_disabled_yields_null_span(self):
        tracer = Tracer(enabled=False)
        with tracer.span("nope", k=1) as span:
            assert span is NULL_SPAN
            span.set_tag("x", 2)  # no-op, must not raise
            span.set_tags(y=3)
            tracer.event("nothing")
        assert tracer.spans == []
        assert tracer.orphan_events == []

    def test_default_tracer_starts_disabled(self):
        assert get_tracer().enabled is False

    def test_scoped_swaps_and_restores(self):
        before = get_tracer()
        fresh = Tracer(deterministic=True)
        with scoped(tracer=fresh) as (active, _metrics):
            assert active is fresh and get_tracer() is fresh
            with get_tracer().span("inside"):
                pass
        assert get_tracer() is before
        assert [s.name for s in fresh.spans] == ["inside"]

    def test_scoped_restores_on_exception(self):
        before = get_tracer()
        with pytest.raises(ValueError):
            with scoped(tracer=Tracer()):
                raise ValueError("x")
        assert get_tracer() is before


class TestDecorator:
    def test_traced_wraps_function(self):
        tracer = Tracer(deterministic=True)

        @traced("my.op", kind="test")
        def add(a, b):
            return a + b

        with scoped(tracer=tracer):
            assert add(2, 3) == 5
        assert add(2, 3) == 5
        assert [s.name for s in tracer.spans] == ["my.op"]
        assert tracer.spans[0].tags == {"kind": "test"}


class TestThreads:
    def test_stacks_are_thread_local(self):
        tracer = Tracer()
        seen = {}

        def worker():
            with tracer.span("worker") as span:
                seen["parent"] = span.parent_id

        with tracer.span("main"):
            thread = threading.Thread(target=worker, name="w1")
            thread.start()
            thread.join()
        # The worker's span must NOT become a child of main's span.
        assert seen["parent"] is None
        threads = {s.thread for s in tracer.spans}
        assert "w1" in threads
        assert well_nested_violations(tracer.spans) == []


class TestWellNestedChecker:
    def test_clean_tree_passes(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            with tracer.span("b"):
                tracer.event("e")
            with tracer.span("c"):
                pass
        assert well_nested_violations(tracer.spans) == []

    def test_detects_escaping_child(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        tracer.spans[1].end = tracer.spans[0].end + 100.0
        assert any(
            "escapes parent" in v
            for v in well_nested_violations(tracer.spans)
        )

    def test_detects_unfinished_span(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            pass
        tracer.spans[0].end = None
        assert any(
            "never finished" in v
            for v in well_nested_violations(tracer.spans)
        )

    def test_detects_sibling_overlap(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        tracer.spans[1].start = tracer.spans[0].start
        assert any(
            "overlap" in v for v in well_nested_violations(tracer.spans)
        )

    def test_detects_event_outside_span(self):
        tracer = Tracer(deterministic=True)
        with tracer.span("a") as span:
            tracer.event("e")
        span.events[0] = type(span.events[0])(
            name="e", time=span.end + 50.0, tags={}
        )
        assert any(
            "outside the span" in v
            for v in well_nested_violations(tracer.spans)
        )
