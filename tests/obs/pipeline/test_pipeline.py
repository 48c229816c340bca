"""TelemetryPipeline end to end: live sink, streaming retention, the
sampling decision path, offline replay, and the registry cardinality
guard it builds on."""

import json

import pytest

from repro.obs import MetricsRegistry, Observability, Tracer
from repro.obs.metrics import OVERFLOW_LABELS
from repro.obs.pipeline import PipelineConfig, TelemetryPipeline
from repro.util.clock import SimulatedClock

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]


def _tracer():
    clock = SimulatedClock()
    return clock, Tracer(clock)


def _invoke(clock, tracer, name="dispatch:notify", *, ms=5.0, fail=False, **attrs):
    """One two-span trace: a root with one child, ``ms`` of virtual time."""
    try:
        with tracer.span(name, **attrs):
            with tracer.span("binding:send"):
                clock.advance(ms)
            if fail:
                raise RuntimeError("boom")
    except RuntimeError:
        pass


class TestLiveSink:
    def test_keep_all_accounting(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=1.0))
        pipeline.attach(tracer)
        for _ in range(4):
            _invoke(clock, tracer)
        accounting = pipeline.accounting()
        assert accounting["traces_total"] == 4
        assert accounting["traces_kept"] == 4
        assert accounting["spans_total"] == 8
        assert accounting["sampled_out"] == 0
        assert accounting["open_traces"] == 0
        assert len(pipeline.retention) == 8
        assert pipeline.rollups.requests == 4

    def test_head_rate_zero_drops_healthy_traces(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=0.0))
        pipeline.attach(tracer)
        for _ in range(3):
            _invoke(clock, tracer)
        accounting = pipeline.accounting()
        assert accounting["traces_kept"] == 0
        assert accounting["traces_sampled_out"] == 3
        assert accounting["sampled_out"] == 6
        assert pipeline.export_jsonl() == ""
        # Rollups still saw the unsampled truth.
        assert pipeline.rollups.requests == 3

    def test_tail_rule_keeps_error_trace_at_rate_zero(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=0.0))
        pipeline.attach(tracer)
        _invoke(clock, tracer)
        _invoke(clock, tracer, fail=True)
        accounting = pipeline.accounting()
        assert accounting["traces_kept"] == 1
        assert accounting["anomalous_traces"] == 1
        assert accounting["anomalous_kept"] == 1
        assert accounting["tail_misses"] == 0
        kept = [json.loads(line) for line in pipeline.export_jsonl().splitlines()]
        assert any(record["status"] == "error" for record in kept)

    def test_slow_trace_kept_after_rule_arms(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=0.0, slow_trace_min_count=5)
        )
        pipeline.attach(tracer)
        for _ in range(40):
            _invoke(clock, tracer, ms=5.0)
        _invoke(clock, tracer, ms=500.0)
        assert pipeline.accounting()["traces_kept"] == 1
        assert pipeline.metrics.counter_values("obs.tail_kept") == {
            (("rule", "slow.p99"),): 1
        }

    def test_source_tags_retained_records(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=1.0))
        pipeline.attach(tracer, source="agent-1")
        _invoke(clock, tracer)
        records = pipeline.retention.records()
        assert {record["source"] for record in records} == {"agent-1"}

    def test_observers_fire_for_dropped_traces(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(PipelineConfig(default_rate=0.0))
        pipeline.attach(tracer)
        seen = []
        pipeline.add_observer(lambda source, spans: seen.append(len(spans)))
        _invoke(clock, tracer)
        assert seen == [2]


class TestStreamingRetention:
    def test_tracer_stops_retaining(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=1.0, streaming=True)
        )
        pipeline.attach(tracer)
        assert not tracer.retaining
        for _ in range(10):
            _invoke(clock, tracer)
        assert tracer.spans == []  # ring is the only storage
        assert len(pipeline.retention) == 20

    def test_ring_eviction_is_accounted(self):
        clock, tracer = _tracer()
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=1.0, span_capacity=6)
        )
        pipeline.attach(tracer)
        for _ in range(5):
            _invoke(clock, tracer)
        assert len(pipeline.retention) == 6
        assert pipeline.dropped_spans == 4
        assert pipeline.accounting()["dropped_spans"] == 4


class TestOfflineReplay:
    def test_replay_matches_live_accounting(self):
        config = PipelineConfig(default_rate=0.3, seed=11)
        clock, tracer = _tracer()
        live = TelemetryPipeline(config)
        live.attach(tracer)
        for index in range(20):
            _invoke(clock, tracer, ms=float(index + 1), fail=index % 7 == 0)
        export = "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in tracer.finished_spans()
        )
        offline = TelemetryPipeline(config)
        traces = offline.ingest_records(
            json.loads(line) for line in export.splitlines()
        )
        assert traces == 20
        assert offline.accounting() == live.accounting()
        assert sorted(offline.export_jsonl().splitlines()) == sorted(
            live.export_jsonl().splitlines()
        )


class TestCardinalityGuard:
    def test_registry_overflow_collapses_series(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        for index in range(5):
            registry.counter("requests", site=f"s{index}").inc()
        values = registry.counter_values("requests")
        overflow_key = tuple(sorted(OVERFLOW_LABELS.items()))
        assert values[overflow_key] == 3
        assert registry.total("requests") == 5
        assert registry.total("obs.cardinality_overflow") == 3

    def test_pipeline_wires_the_limit(self):
        pipeline = TelemetryPipeline(
            PipelineConfig(default_rate=1.0, max_metric_series=1)
        )
        for index in range(3):
            pipeline.metrics.counter("custom", shard=str(index)).inc()
        assert pipeline.cardinality_overflow == 2


class TestObservabilityAttachment:
    def test_install_pipeline_is_idempotent(self):
        hub = Observability()
        first = hub.install_pipeline(PipelineConfig(default_rate=1.0))
        second = hub.install_pipeline()
        assert first is second is hub.pipeline
        assert hub.pipeline.metrics is hub.metrics

    def test_disabled_hub_attach_is_a_noop(self):
        hub = Observability.disabled()
        pipeline = TelemetryPipeline(PipelineConfig(streaming=True))
        pipeline.attach(hub.tracer)  # no sink support on the noop tracer
        assert pipeline.accounting()["traces_total"] == 0
