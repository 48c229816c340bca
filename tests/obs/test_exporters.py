"""Exporter behaviour: deterministic JSONL, file append, text rendering."""

import json

import pytest

from repro.obs import (
    InMemoryExporter,
    JsonlFileExporter,
    MetricsRegistry,
    Tracer,
    export_jsonl,
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


class TestInMemoryExporter:
    def test_collects_dicts(self, trace):
        exporter = InMemoryExporter()
        batch = exporter.export(trace.finished_spans())
        assert exporter.exported == batch
        assert batch[0]["name"] == "dispatch:get"
        assert batch[0]["attributes"] == {"interface": "Http"}


class TestJsonlFileExporter:
    def test_appends_batches(self, trace, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlFileExporter(path)
        spans = trace.finished_spans()
        assert exporter.export(spans[:1]) == 1
        assert exporter.export(spans[1:]) == 2
        exporter.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["name"] == "dispatch:get"  # start order

    def test_flushes_after_each_batch(self, trace, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = JsonlFileExporter(path)
        exporter.export(trace.finished_spans())
        # Readable before close: the handle flushes per batch.
        assert len(path.read_text(encoding="utf-8").splitlines()) == 3
        exporter.close()
        exporter.close()  # idempotent

    def test_context_manager_closes(self, trace, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JsonlFileExporter(path) as exporter:
            exporter.export(trace.finished_spans())
        assert len(path.read_text().splitlines()) == 3
        # Reopening after close appends rather than truncating.
        with JsonlFileExporter(path) as exporter:
            exporter.export(trace.finished_spans()[:1])
        assert len(path.read_text().splitlines()) == 4

    def test_utf8_attributes_survive(self, tmp_path):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("dispatch:send", text="नमस्ते"):
            clock.advance(1.0)
        path = tmp_path / "spans.jsonl"
        with JsonlFileExporter(path) as exporter:
            exporter.export(tracer.finished_spans())
        record = json.loads(path.read_text(encoding="utf-8"))
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
        from repro.obs import parse_jsonl, records_to_jsonl

        payload = export_jsonl(trace.finished_spans())
        assert records_to_jsonl(parse_jsonl(payload)) == payload
