"""Tracer unit behaviour: nesting, events, errors, determinism knobs."""

import enum

import pytest

from repro.obs import NOOP_TRACER, Observability, Tracer
from repro.obs.span import _clean_attributes
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestSpanLifecycle:
    def test_nesting_builds_parent_links(self, tracer):
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current_span is inner
            assert tracer.current_span is outer
        assert tracer.current_span is None
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id

    def test_sibling_roots_get_fresh_trace_ids(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        assert a.trace_id != b.trace_id
        assert a.parent_id is None and b.parent_id is None

    def test_span_ids_are_sequential_from_construction(self, tracer):
        with tracer.span("a") as a:
            with tracer.span("b") as b:
                pass
        with tracer.span("c") as c:
            pass
        assert (a.span_id, b.span_id, c.span_id) == (1, 2, 3)

    def test_virtual_stamps_come_from_the_clock(self, tracer, clock):
        clock.advance(100.0)
        with tracer.span("op") as span:
            clock.advance(15.5)
        assert span.start_virtual_ms == 100.0
        assert span.end_virtual_ms == 115.5
        assert span.duration_virtual_ms == 15.5

    def test_escaping_exception_marks_error_and_reraises(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with tracer.span("op") as span:
                raise ValueError("boom")
        assert span.status == "error"
        assert "boom" in span.error
        assert span.finished

    def test_end_span_closes_dangling_children(self, tracer):
        outer = tracer.start_span("outer")
        tracer.start_span("leaked")
        tracer.end_span(outer)
        assert tracer.current_span is None
        assert all(span.finished for span in tracer.spans)

    def test_ending_an_unopened_span_raises(self, tracer):
        with tracer.span("done") as span:
            pass
        with pytest.raises(ValueError):
            tracer.end_span(span)

    def test_ending_a_span_twice_leaves_the_open_spans_alone(self, tracer, clock):
        ended = []
        tracer.add_sink(lambda span: ended.append(span.name))
        with tracer.span("outer") as outer:
            inner = tracer.start_span("inner")
            tracer.end_span(inner)
            clock.advance(1.0)
            with pytest.raises(ValueError, match="'inner' is not open"):
                tracer.end_span(inner)
            assert tracer.current_span is outer
            assert not outer.finished
            assert ended == ["inner"]
            clock.advance(2.0)
        assert ended == ["inner", "outer"]
        assert (inner.end_virtual_ms, outer.end_virtual_ms) == (0.0, 3.0)
        assert outer.status == "ok"
        assert tracer.current_span is None

    def test_ending_a_span_of_another_tracer_closes_nothing(self, tracer, clock):
        ended = []
        tracer.add_sink(lambda span: ended.append(span.name))
        stranger = Tracer(clock).start_span("stranger")
        opened = tracer.start_span("opened")
        with pytest.raises(ValueError, match="'stranger' is not open"):
            tracer.end_span(stranger)
        assert tracer.current_span is opened
        assert ended == []
        tracer.end_span(opened)
        assert ended == ["opened"]

    def test_late_clock_binding(self):
        tracer = Tracer()
        clock = SimulatedClock()
        clock.advance(42.0)
        tracer.bind_clock(clock)
        with tracer.span("op") as span:
            pass
        assert span.start_virtual_ms == 42.0


class TestSpanScope:
    """``with tracer.span(...)``: the scope object's contract."""

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt("boom")])
    def test_escaping_exception_marks_error_and_reraises(self, tracer, error):
        with pytest.raises(type(error)) as excinfo:
            with tracer.span("outer") as outer:
                with tracer.span("inner") as inner:
                    raise error
        assert excinfo.value is error
        for span in (outer, inner):
            assert span.status == "error"
            assert span.error == f"{type(error).__name__}: boom"
            assert span.finished
        assert tracer.current_span is None

    def test_clean_exit_stays_ok(self, tracer):
        with tracer.span("op") as span:
            pass
        assert (span.status, span.error, span.finished) == ("ok", None, True)

    def test_span_opens_on_entry(self, tracer, clock):
        scope = tracer.span("late")
        assert tracer.spans == []
        clock.advance(5.0)
        with scope as span:
            assert tracer.current_span is span
        assert span.start_virtual_ms == 5.0

    def test_exit_closes_spans_abandoned_beneath_it(self, tracer, clock):
        ended = []
        tracer.add_sink(lambda span: ended.append(span.name))
        with tracer.span("outer") as outer:
            leaked = tracer.start_span("leaked")
            clock.advance(2.0)
        assert ended == ["leaked", "outer"]
        assert leaked.end_virtual_ms == outer.end_virtual_ms == 2.0
        assert tracer.current_span is None


class TestAttributes:
    def test_scalars_kept_and_others_repred_at_start(self, tracer):
        span = tracer.start_span(
            "op", text="a", count=2, ratio=0.5, flag=True, none=None,
            items=[1, 2], mapping={"k": 1},
        )
        tracer.end_span(span)
        assert span.attributes == {
            "text": "a", "count": 2, "ratio": 0.5, "flag": True, "none": None,
            "items": "[1, 2]", "mapping": "{'k': 1}",
        }
        assert list(span.attributes) == [
            "text", "count", "ratio", "flag", "none", "items", "mapping",
        ]

    def test_scope_attributes_are_cleaned_too(self, tracer):
        with tracer.span("op", where=("x", 1)) as span:
            pass
        assert span.attributes == {"where": "('x', 1)"}

    def test_set_attribute_reprs_non_scalars_and_overwrites(self, tracer):
        with tracer.span("op", key="first") as span:
            span.set_attribute("key", {"second": 2})
            span.set_attribute("latency_ms", 1.25)
            span.set_attribute("tags", {"a"})
        assert span.attributes == {
            "key": "{'second': 2}", "latency_ms": 1.25, "tags": "{'a'}",
        }

    def test_spans_without_attributes_do_not_share_a_dict(self, tracer):
        with tracer.span("a") as a:
            pass
        with tracer.span("b") as b:
            pass
        a.set_attribute("only", "a")
        assert b.attributes == {}


class TestEvents:
    def test_event_attaches_to_innermost_span(self, tracer, clock):
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                clock.advance(3.0)
                tracer.event("retry", attempt=2)
        assert [event.name for event in inner.events] == ["retry"]
        assert inner.events[0].t_virtual_ms == 3.0
        assert inner.events[0].attributes == {"attempt": 2}

    def test_event_outside_any_span_is_dropped(self, tracer):
        tracer.event("orphan")
        assert tracer.spans == []


class TestReading:
    def test_finished_excludes_open_spans(self, tracer):
        open_span = tracer.start_span("open")
        with tracer.span("closed"):
            pass
        names = [span.name for span in tracer.finished_spans()]
        assert names == ["closed"]
        tracer.end_span(open_span)

    def test_roots_and_children(self, tracer):
        with tracer.span("root") as root:
            with tracer.span("child"):
                pass
        assert [span.name for span in tracer.roots()] == ["root"]
        assert [span.name for span in tracer.children_of(root)] == ["child"]

    def test_reset_refuses_with_open_spans(self, tracer):
        span = tracer.start_span("open")
        with pytest.raises(ValueError):
            tracer.reset()
        tracer.end_span(span)
        tracer.reset()
        assert tracer.spans == []


class TestStreaming:
    """``set_retention(False)``: spans reach the sinks and no read index.  A span
    is retained when the tracer was retaining as it opened; what was
    retained before a flip to streaming is cleared at the next trace
    completion."""

    def test_streaming_tracer_indexes_nothing(self, clock):
        tracer = Tracer(clock)
        tracer.set_retention(False)
        ended = []
        tracer.add_sink(lambda span: ended.append(span.name))
        with tracer.span("root") as root:
            with tracer.span("child"):
                assert tracer.spans == []
                assert tracer.roots() == []
                assert tracer.children_of(root) == []
            assert tracer.finished_spans() == []
        assert ended == ["child", "root"]
        assert tracer.spans == []
        assert tracer.finished_spans() == []

    def test_flip_keeps_what_was_retained_until_the_next_completion(self, tracer):
        with tracer.span("done") as done:
            with tracer.span("done.child"):
                pass
        root = tracer.start_span("open")
        tracer.set_retention(False)
        child = tracer.start_span("open.child")
        assert [span.name for span in tracer.spans] == ["done", "done.child", "open"]
        assert [span.name for span in tracer.roots()] == ["done", "open"]
        assert [span.name for span in tracer.children_of(done)] == ["done.child"]
        assert tracer.children_of(root) == []
        tracer.end_span(child)
        assert [span.name for span in tracer.finished_spans()] == [
            "done", "done.child",
        ]
        tracer.end_span(root)
        assert tracer.spans == []
        assert tracer.roots() == []
        assert tracer.children_of(done) == []
        assert tracer.finished_spans() == []
        with tracer.span("later"):
            pass
        assert tracer.spans == []

    def test_finished_spans_see_a_span_open_across_the_flip(self, tracer):
        root = tracer.start_span("root")
        child = tracer.start_span("child")
        assert tracer.finished_spans() == []  # memoized while both are open
        tracer.set_retention(False)
        tracer.end_span(child)
        assert tracer.finished_spans() == [child]
        tracer.end_span(root)
        assert tracer.finished_spans() == []


class _Level(enum.IntEnum):
    HIGH = 2


class _Tag(str):
    pass


class TestCleanAttributes:
    def test_all_scalar_dict_is_returned_as_it_is(self):
        attributes = {"text": "a", "count": 2, "ratio": 0.5, "flag": True, "none": None}
        assert _clean_attributes(attributes) is attributes

    def test_non_scalars_are_repred_into_a_new_dict(self):
        attributes = {"count": 2, "items": [1, 2]}
        cleaned = _clean_attributes(attributes)
        assert cleaned == {"count": 2, "items": "[1, 2]"}
        assert attributes == {"count": 2, "items": [1, 2]}

    def test_scalar_subclasses_are_kept_as_they_are(self, tracer, clock):
        tag = _Tag("north")
        with tracer.span("op", level=_Level.HIGH, tag=tag) as span:
            tracer.event("seen", level=_Level.HIGH, items=(1,))
        assert span.attributes["level"] is _Level.HIGH
        assert span.attributes["tag"] is tag
        assert span.events[0].attributes == {"level": _Level.HIGH, "items": "(1,)"}
        assert span.events[0].attributes["level"] is _Level.HIGH


class TestNoopTracer:
    def test_flag_and_nullity(self):
        assert NOOP_TRACER.enabled is False
        assert NOOP_TRACER.current_span is None
        with NOOP_TRACER.span("anything", key="value") as span:
            assert span is None
        NOOP_TRACER.event("dropped")
        assert NOOP_TRACER.spans == []
        assert NOOP_TRACER.finished_spans() == []


class TestObservabilityHub:
    def test_disabled_hub_shares_the_noop_tracer(self):
        hub = Observability.disabled()
        assert hub.tracer is NOOP_TRACER
        assert hub.enabled is False
        assert hub.metrics is not None  # metrics stay live regardless

    def test_enabled_hub_records(self):
        hub = Observability()
        assert hub.enabled is True
        with hub.tracer.span("op"):
            pass
        assert len(hub.tracer.finished_spans()) == 1
