"""SLO engine: specs, sliding windows, breach edges, emission."""

import pytest

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, Tracer
from repro.obs.analyze.slo import SloEngine, SloSpec
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloSpec("op", latency_threshold_ms=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec("op", 10.0, target_ratio=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec("op", 10.0, error_budget=1.5)
        with pytest.raises(ConfigurationError):
            SloSpec("op", 10.0, window_ms=-1.0)

    def test_name_and_matching(self):
        anywhere = SloSpec("getLocation", 50.0)
        assert anywhere.name == "getLocation@*"
        assert anywhere.matches("getLocation", "android")
        assert anywhere.matches("getLocation", None)
        assert not anywhere.matches("sendTextMessage", "android")

        pinned = SloSpec("getLocation", 50.0, platform="s60")
        assert pinned.name == "getLocation@s60"
        assert pinned.matches("getLocation", "s60")
        assert not pinned.matches("getLocation", "android")

    def test_parse_full_and_partial(self):
        spec = SloSpec.parse("getLocation:50")
        assert spec.latency_threshold_ms == 50.0
        assert spec.target_ratio == 0.99

        spec = SloSpec.parse("getLocation:50:0.9:30000:android")
        assert spec.target_ratio == 0.9
        assert spec.window_ms == 30_000.0
        assert spec.platform == "android"

        with pytest.raises(ConfigurationError):
            SloSpec.parse("getLocation")


class TestEngine:
    def test_needs_specs_and_unique_names(self):
        with pytest.raises(ConfigurationError):
            SloEngine([])
        with pytest.raises(ConfigurationError):
            SloEngine([SloSpec("op", 10.0), SloSpec("op", 20.0)])

    def test_attainment_vacuous_on_empty_window(self):
        engine = SloEngine([SloSpec("op", 10.0)])
        (status,) = engine.evaluate(0.0)
        assert status.attainment == 1.0
        assert status.error_rate == 0.0
        assert not status.breached

    def test_latency_breach(self):
        engine = SloEngine([SloSpec("op", 10.0, target_ratio=0.8)])
        for t, latency in ((1.0, 5.0), (2.0, 5.0), (3.0, 50.0), (4.0, 50.0)):
            engine.observe("op", latency, t_ms=t)
        (status,) = engine.evaluate(5.0)
        assert status.attainment == 0.5
        assert status.breached
        assert engine.breached() == ["op@*"]

    def test_error_budget_breach(self):
        engine = SloEngine([SloSpec("op", 100.0, error_budget=0.1)])
        engine.observe("op", 1.0, t_ms=1.0)
        engine.observe("op", 1.0, ok=False, t_ms=2.0)
        (status,) = engine.evaluate(3.0)
        assert status.error_rate == 0.5
        assert status.breached
        assert any("budget" in reason for reason in status.reasons)

    def test_window_slides_and_recovers(self):
        engine = SloEngine([SloSpec("op", 10.0, window_ms=100.0)])
        engine.observe("op", 99.0, t_ms=50.0)  # slow call
        (status,) = engine.evaluate(60.0)
        assert status.breached
        # 100ms later the slow call ages out and the SLO recovers.
        (status,) = engine.evaluate(200.0)
        assert not status.breached
        assert status.window_count == 0
        assert engine.breached() == []

    def test_ingest_records_filters_unfinished_and_non_dispatch(self):
        records = [
            {"name": "dispatch:op", "span_id": 1, "start_virtual_ms": 0.0,
             "end_virtual_ms": 5.0, "status": "ok",
             "attributes": {"platform": "android"}},
            {"name": "dispatch:op", "span_id": 2, "start_virtual_ms": 0.0,
             "end_virtual_ms": None, "status": "ok", "attributes": {}},
            {"name": "binding:op", "span_id": 3, "start_virtual_ms": 0.0,
             "end_virtual_ms": 5.0, "status": "ok", "attributes": {}},
        ]
        engine = SloEngine([SloSpec("op", 10.0)])
        assert engine.ingest_records(records) == 1
        (status,) = engine.evaluate(5.0)
        assert status.window_count == 1

    def test_breach_counter_is_edge_triggered(self):
        metrics = MetricsRegistry()
        engine = SloEngine([SloSpec("op", 10.0)], metrics=metrics)
        engine.observe("op", 99.0, t_ms=1.0)
        engine.evaluate(2.0)   # enters breach
        engine.observe("op", 99.0, t_ms=3.0)
        engine.evaluate(4.0)   # still breached: no second increment
        assert metrics.total("slo.breaches") == 1
        assert metrics.total("slo.evaluations") == 2

    def test_gauges_emitted_per_slo(self):
        metrics = MetricsRegistry()
        engine = SloEngine([SloSpec("op", 10.0)], metrics=metrics)
        engine.observe("op", 5.0, t_ms=1.0)
        engine.evaluate(2.0)
        snapshot = metrics.snapshot()
        assert snapshot["slo.attainment"][0]["labels"] == {"slo": "op@*"}
        assert snapshot["slo.attainment"][0]["value"] == 1.0
        assert snapshot["slo.window_count"][0]["value"] == 1

    def test_breach_span_event(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        engine = SloEngine([SloSpec("op", 10.0)], tracer=tracer)
        engine.observe("op", 99.0, t_ms=1.0)
        engine.evaluate(2.0)
        (span,) = tracer.finished_spans()
        assert span.name == "slo:evaluate"
        (event,) = span.events
        assert event.name == "slo.breach"
        assert event.attributes["slo"] == "op@*"

    def test_status_to_dict_jsonable(self):
        import json

        engine = SloEngine([SloSpec("op", 10.0)])
        engine.observe("op", 5.0, t_ms=1.0)
        (status,) = engine.evaluate(2.0)
        payload = json.dumps(status.to_dict())
        assert "op@*" in payload
