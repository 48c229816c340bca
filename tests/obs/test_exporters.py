"""Exporter behaviour: deterministic JSONL and text rendering."""

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    export_jsonl,
    parse_jsonl,
    render_metrics_text,
    render_span_tree,
)
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


@pytest.fixture
def trace():
    """A small finished trace with an event and an error span."""
    clock = SimulatedClock()
    tracer = Tracer(clock)
    with tracer.span("dispatch:get", interface="Http"):
        clock.advance(2.0)
        with tracer.span("binding:get"):
            tracer.event("binding.http_request", method="GET")
            clock.advance(10.0)
    try:
        with tracer.span("dispatch:post"):
            raise RuntimeError("offline")
    except RuntimeError:
        pass
    return tracer


class TestJsonl:
    def test_real_time_excluded_by_default(self, trace):
        payload = export_jsonl(trace.finished_spans())
        assert "real" not in payload
        for line in payload.strip().splitlines():
            record = json.loads(line)
            assert "start_real_ms" not in record
            assert "end_real_ms" not in record

    def test_keys_sorted_and_one_object_per_line(self, trace):
        payload = export_jsonl(trace.finished_spans())
        lines = payload.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)

    def test_empty_export_is_empty_string(self):
        assert export_jsonl([]) == ""

    def test_error_span_round_trips(self, trace):
        records = [json.loads(line) for line in export_jsonl(trace.finished_spans()).splitlines()]
        errored = [r for r in records if r["status"] == "error"]
        assert len(errored) == 1
        assert "offline" in errored[0]["error"]

    def test_utf8_attributes_survive(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("dispatch:send", text="नमस्ते"):
            clock.advance(1.0)
        (record,) = parse_jsonl(export_jsonl(tracer.finished_spans()))
        assert record["attributes"]["text"] == "नमस्ते"


class TestTextRendering:
    def test_span_tree_shape(self, trace):
        rendered = render_span_tree(trace.spans)
        lines = rendered.splitlines()
        assert lines[0].startswith("dispatch:get (interface=Http) @0.0ms +12.0ms")
        assert any(line.startswith("  binding:get") for line in lines)
        assert any("* binding.http_request (method=GET)" in line for line in lines)
        assert any("[error: RuntimeError: offline]" in line for line in lines)

    def test_metrics_text(self):
        registry = MetricsRegistry()
        registry.counter("requests", site="x").inc(3)
        registry.histogram("latency", buckets=(10.0,)).observe(4.0)
        registry.gauge("depth").set(2.5)
        rendered = render_metrics_text(registry)
        assert "requests{site=x} counter 3" in rendered
        assert "depth gauge 2.5" in rendered
        assert (
            "latency histogram count=1 sum=4.000 mean=4.000 "
            "p50=4.000 p95=4.000 p99=4.000"
        ) in rendered
        assert "buckets: le10=1 le+Inf=1" in rendered

    def test_orphan_spans_render_as_roots(self, trace):
        # A filtered export can drop a parent; its children must still
        # render (as roots) instead of vanishing.
        spans = [s for s in trace.spans if s.name != "dispatch:get"]
        rendered = render_span_tree(spans)
        assert rendered.startswith("binding:get")
        assert "dispatch:post" in rendered

    def test_jsonl_parse_reserialize_byte_identical(self, trace):
        # parse_jsonl keeps every field, so re-serializing the records
        # the way export_jsonl does gives back the same bytes.
        payload = export_jsonl(trace.finished_spans())
        assert "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in parse_jsonl(payload)
        ) == payload
