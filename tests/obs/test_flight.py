"""Unit tests for the flight recorder's rings, triggers and dumps."""

import pytest

from repro.obs import FlightRecorder, Tracer, render_flight_text
from repro.obs.flight import COOLDOWN_MS, DUMP_CAPACITY, RING_CAPACITY
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


def make_recorder():
    clock = SimulatedClock()
    recorder = FlightRecorder(clock=clock)
    return clock, recorder


class TestRecording:
    def test_attach_shadows_finished_spans_and_events(self):
        clock, recorder = make_recorder()
        tracer = Tracer(clock)
        recorder.attach(tracer, source="agent-1")
        with tracer.span("queue:work", shard=0):
            tracer.event("queue.shed", depth=3)
            clock.advance(5.0)
        dump = recorder.trigger("test")
        assert [span["name"] for span in dump["spans"]] == ["queue:work"]
        assert dump["spans"][0]["source"] == "agent-1"
        event = dump["events"][0]
        assert event["name"] == "queue.shed"
        assert event["span_id"] == dump["spans"][0]["span_id"]
        assert event["source"] == "agent-1"

    def test_span_ring_is_bounded(self):
        clock, recorder = make_recorder()
        tracer = Tracer(clock)
        recorder.attach(tracer)
        for index in range(RING_CAPACITY + 2):
            with tracer.span(f"s{index}"):
                pass
        dump = recorder.trigger("test")
        assert [span["name"] for span in dump["spans"]] == [
            f"s{index}" for index in range(2, RING_CAPACITY + 2)
        ]

    def test_note_records_standalone_event(self):
        clock, recorder = make_recorder()
        clock.advance(7.0)
        recorder.note("task.crashed", task="t", error="boom")
        dump = recorder.trigger("test")
        assert dump["events"] == [
            {
                "attributes": {"error": "boom", "task": "t"},
                "name": "task.crashed",
                "span_id": None,
                "t_virtual_ms": 7.0,
            }
        ]

    def test_record_sample_matches_sampler_sink_signature(self):
        _, recorder = make_recorder()
        recorder.record_sample("runtime.queue_depth", {"shard": "0"}, 3.0, 12.0)
        dump = recorder.trigger("test")
        assert dump["samples"] == [
            {
                "labels": {"shard": "0"},
                "metric": "runtime.queue_depth",
                "t_virtual_ms": 3.0,
                "value": 12.0,
            }
        ]


class TestTriggering:
    def test_cooldown_collapses_bursts(self):
        clock, recorder = make_recorder()
        assert recorder.trigger("shed") is not None
        for _ in range(5):
            assert recorder.trigger("shed") is None  # same instant: suppressed
        assert recorder.triggered == 1
        assert recorder.last_dump["suppressed"] == 5
        clock.advance(COOLDOWN_MS - 1.0)
        assert recorder.trigger("shed") is None  # still cooling down
        clock.advance(1.0)
        assert recorder.trigger("shed") is not None
        assert recorder.triggered == 2

    def test_cooldown_is_per_reason(self):
        _, recorder = make_recorder()
        assert recorder.trigger("shed") is not None
        assert recorder.trigger("breaker.open") is not None
        assert recorder.triggered == 2

    def test_dump_eviction_keeps_sequence_monotonic(self):
        clock, recorder = make_recorder()
        for _ in range(DUMP_CAPACITY + 2):
            recorder.trigger("shed")
            clock.advance(COOLDOWN_MS)
        assert [dump["sequence"] for dump in recorder.dumps] == list(
            range(3, DUMP_CAPACITY + 3)
        )
        assert recorder.triggered == DUMP_CAPACITY + 2

    def test_trigger_attributes_are_cleaned(self):
        _, recorder = make_recorder()
        dump = recorder.trigger("shed", shard=0, operation="work")
        assert dump["attributes"] == {"operation": "work", "shard": 0}


class TestSerialization:
    def test_json_roundtrip_and_schema(self):
        clock, recorder = make_recorder()
        recorder.note("task.crashed", task="t")
        recorder.trigger("task.crashed", task="t")
        payload = FlightRecorder.parse(recorder.to_json())
        assert payload["schema"] == "repro.obs.flight/v1"
        assert payload["dumps"][0]["reason"] == "task.crashed"

    def test_parse_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            FlightRecorder.parse('{"schema": "something/else"}')

    def test_render_text_mentions_dump_and_suppression(self):
        clock, recorder = make_recorder()
        tracer = Tracer(clock)
        recorder.attach(tracer)
        with tracer.span("queue:work"):
            clock.advance(2.0)
        recorder.trigger("queue.shed", shard=1)
        recorder.trigger("queue.shed", shard=1)
        text = render_flight_text(recorder.to_dict())
        assert "dump #1: queue.shed" in text
        assert "+1 suppressed" in text
        assert "span 1 queue:work" in text

    def test_deterministic_across_identical_runs(self):
        def run():
            clock, recorder = make_recorder()
            tracer = Tracer(clock)
            recorder.attach(tracer, source="a")
            with tracer.span("queue:get", shard=0):
                clock.advance(3.0)
            recorder.record_sample("g", {}, clock.now_ms, 1.0)
            recorder.trigger("queue.shed", shard=0)
            return recorder.to_json()

        assert run() == run()
