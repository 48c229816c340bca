"""`python -m repro.obs health`: the fleet health console and its gate."""

import json

import pytest

from repro.obs import Tracer
from repro.obs.analyze.cli import main
from repro.obs.pipeline import HEALTH_SCHEMA
from repro.util.clock import SimulatedClock

pytestmark = [pytest.mark.obs, pytest.mark.pipeline]


@pytest.fixture
def trace_path(tmp_path):
    """20 clean dispatches plus one error trace, exported to JSONL."""
    clock = SimulatedClock()
    tracer = Tracer(clock)
    for _ in range(20):
        with tracer.span("dispatch:notify", platform="android"):
            clock.advance(5.0)
    try:
        with tracer.span("dispatch:notify", platform="android"):
            clock.advance(5.0)
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    path = tmp_path / "trace.jsonl"
    path.write_text(
        "".join(
            json.dumps(span.to_dict(), sort_keys=True) + "\n"
            for span in tracer.finished_spans()
        )
    )
    return str(path)


class TestHealthConsole:
    def test_text_verdict(self, trace_path, capsys):
        assert main(["health", trace_path]) == 0
        out = capsys.readouterr().out
        assert "telemetry health: HEALTHY" in out
        assert "tail misses 0" in out

    def test_json_document(self, trace_path, capsys):
        assert main(["health", trace_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == HEALTH_SCHEMA
        telemetry = payload["telemetry"]["accounting"]
        assert telemetry["traces_total"] == 21
        assert telemetry["anomalous_traces"] == 1
        assert telemetry["tail_misses"] == 0

    def test_out_writes_the_report(self, trace_path, tmp_path, capsys):
        out = tmp_path / "HEALTH.json"
        assert main(["health", trace_path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["schema"] == HEALTH_SCHEMA

    def test_sampling_flags_replay_a_rate(self, trace_path, capsys):
        assert main(
            ["health", trace_path, "--rate", "0.0", "--seed", "3", "--json"]
        ) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]["accounting"]
        # Only the tail-kept error trace survives a zero head rate.
        assert telemetry["traces_kept"] == 1
        assert telemetry["anomalous_kept"] == 1

    def test_rate_op_override(self, trace_path, capsys):
        assert main(
            ["health", trace_path, "--rate", "0.0",
             "--rate-op", "notify=1.0", "--json"]
        ) == 0
        telemetry = json.loads(capsys.readouterr().out)["telemetry"]["accounting"]
        assert telemetry["traces_kept"] == 21

    def test_rate_op_rejects_malformed(self, trace_path):
        with pytest.raises(SystemExit):
            main(["health", trace_path, "--rate-op", "notify"])


class TestHealthGate:
    def test_healthy_run_passes(self, trace_path, capsys):
        assert main(["health", trace_path, "--gate"]) == 0
        capsys.readouterr()

    def test_captured_anomalies_pass_but_strict_fails(self, trace_path, capsys):
        assert main(["health", trace_path, "--gate"]) == 0
        assert main(["health", trace_path, "--gate", "--strict"]) == 1
        assert "anomalous" in capsys.readouterr().out

    def test_ring_drops_fail_the_gate(self, trace_path, capsys):
        assert main(["health", trace_path, "--gate", "--retain", "2"]) == 1
        assert "dropped" in capsys.readouterr().out

    def test_slo_breach_fails_the_gate(self, trace_path, capsys):
        # Every dispatch takes 5ms; a 1ms threshold at target 0.99 breaches.
        assert main(
            ["health", trace_path, "--gate", "--slo", "notify:1"]
        ) == 1
        out = capsys.readouterr().out
        assert "slo" in out.lower()

    def test_generous_slo_passes(self, tmp_path, capsys):
        # A clean trace (the fixture's error trace would blow the 1%
        # error budget no matter the latency threshold).
        clock = SimulatedClock()
        tracer = Tracer(clock)
        for _ in range(20):
            with tracer.span("dispatch:notify", platform="android"):
                clock.advance(5.0)
        path = tmp_path / "clean.jsonl"
        path.write_text(
            "".join(
                json.dumps(span.to_dict(), sort_keys=True) + "\n"
                for span in tracer.finished_spans()
            )
        )
        assert main(
            ["health", str(path), "--gate", "--slo", "notify:1000:0.5"]
        ) == 0
        capsys.readouterr()
