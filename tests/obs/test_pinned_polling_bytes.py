"""Pinned bytes for the traced WebView polling path.

Replays the committed ``webview_drain`` recording on ``webview`` with
tracing on and pins the sha256 of the tracer's JSONL export and of the
metrics snapshot (histogram P² percentiles included).  The determinism
tests compare two runs of one tree, so they cannot see a byte that a
change to the span, metric or polling plumbing moves; these digests
can.  They change only when the traced behaviour of the polling path
changes on purpose — regenerate them then, and say so.
"""

import hashlib
import json
import pathlib

import pytest

from repro.scenario import ScenarioRecording
from repro.scenario.driver import build_world
from repro.scenario.recorder import execute

pytestmark = pytest.mark.obs

RECORDING = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / "webview_drain.jsonl"

TRACE_SHA256 = "8911ab2929b180fe01f4d03a9b29ea37ba3cce3c80b8dc95e642827955948f6a"
METRICS_SHA256 = "98fb143cc4c8b68203e5b362263f5a2f4c067912000109fb37b0c19b21a71d3b"


@pytest.fixture(scope="module")
def hub():
    scenario = ScenarioRecording.parse(RECORDING.read_text(encoding="utf-8")).scenario
    world = build_world("webview", scenario)
    execute(scenario, world)
    return world.hub


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_the_replay_polls_and_drains(hub):
    names = [span.name for span in hub.tracer.finished_spans()]
    assert names.count("bridge:get_notifications") > 100
    drains = hub.metrics.histogram(
        "substrate.latency_ms", operation="webview.bridge.get_notifications"
    )
    assert drains.count > 100  # P² markers well past their exact phase


def test_trace_export_bytes_are_pinned(hub):
    assert _sha256(hub.export_jsonl()) == TRACE_SHA256


def test_metrics_snapshot_bytes_are_pinned(hub):
    snapshot = hub.metrics.snapshot()
    assert any("percentiles" in entry for entries in snapshot.values() for entry in entries)
    assert _sha256(json.dumps(snapshot, sort_keys=True)) == METRICS_SHA256
