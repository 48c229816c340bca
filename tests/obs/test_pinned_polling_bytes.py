"""Pinned bytes for every traced replay.

Replays each committed recording under ``tests/scenarios/`` on each of
the three platforms with tracing on and pins the sha256 of the tracer's
JSONL export and of the metrics snapshot (histogram P² percentiles
included).  The determinism tests compare two runs of one tree, so they
cannot see a byte that a change to the invocation path, the span and
metric plumbing or the WebView polling path moves; these digests can.
They change only when traced behaviour changes on purpose — regenerate
them then, and say so.
"""

import hashlib
import json
import pathlib

import pytest

from repro.scenario import ScenarioRecording
from repro.scenario.driver import build_world
from repro.scenario.recorder import execute

pytestmark = pytest.mark.obs

SCENARIOS = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
PLATFORMS = ("android", "s60", "webview")

#: (recording, platform) → (trace export sha256, metrics snapshot sha256).
PINS = {
    ("commute", "android"): (
        "3f0704b1cfb5f16560d2560fc6bcbad5837013c1aa9e5521af53f9139a9010d0",
        "5e4633dc49411f91d0654da848f1a8f1bc799d2bd9ad424dc5843bf27e6ce93b",
    ),
    ("commute", "s60"): (
        "21840ae9be3a78df7a78724384ff47717b47d9f646b739ad18d455696cef4ed7",
        "89d474a3ed0ece0d9c87105496991502c5a67a6703a2e9b0d4c7e37dc3ab39b4",
    ),
    ("commute", "webview"): (
        "8940147da27c93845a70dc97dea528529f5c6768bd7e1d7e97407d2973f6de66",
        "3bb41f84989c0d462e7153c3f3321a7c22750c643c32c8e0aa58cb14dd536c01",
    ),
    ("partition_window", "android"): (
        "389afb64e96f5feffe3c7713c24bdec04af7a28242208368050bc6492a368a3a",
        "0b041b23b039770905a313196f8d1b800fe8e812bd2c93a844f205df03db46bd",
    ),
    ("partition_window", "s60"): (
        "1f258df94b88f34f1442e37d3911a5288e4d6248af1d3185579094d4ad539f53",
        "3dc9afab68ee34fa6c88464ae20a8e9be8f90eed8e55a8e15df52744b6b5df68",
    ),
    ("partition_window", "webview"): (
        "aac77ec30bea1c590385f1ec9269b2b48d70c6c5d315d49c0e63e2c519b39d6a",
        "598453beec97cc4608db35f5f1d6036360afe59df558d08486f4f1ab0eb2f6f0",
    ),
    ("retry_storm", "android"): (
        "e75202ea48caae4e512bcbff877af25d58b2337c3e82eff6d8d11feb28ad8853",
        "800655efe354c3aefd6cc95c7469b006fd9bda6516c935bb99e32c481963573a",
    ),
    ("retry_storm", "s60"): (
        "3e355b5feb69f4a768deb50eeb915cce70c520ffcc5107e078dd61770fb5b1b8",
        "e0a80c3fcc1e417d5b33ef34ac8b5022cc8deda636c30ac7edc65999c75f2bc9",
    ),
    ("retry_storm", "webview"): (
        "82cf441bab666070528d1805e076a28ce3cbf3d255efe3546282bbb663deef83",
        "37072331697051b3fa55b01a4a680530f0776297009751452c3c931cb8f1e0e4",
    ),
    ("saga_flow", "android"): (
        "a1a5b677cfa2920dbf465af288144ac8c23b819d02334917bf4ae6733048c953",
        "5ce4e6c73b907c01fb5cc8386d933115f0c6d94b7dc77072f24a3c7c0f5df281",
    ),
    ("saga_flow", "s60"): (
        "c9ee9906de784726f80573b6783e329d7c8958a8800ab4157425844878383d9c",
        "91dccdca2568fee492d56ec5b395651c8d6d053613591ae0523021cf66e3f590",
    ),
    ("saga_flow", "webview"): (
        "22642212dd4bd30946d1e617d2bd08815d6805d20e1d910eff6e97d4103c5e0c",
        "11833cf6fe35867ce32c4e5a18cdc475cc3dc425c1a1b6a5aa1f089dc6c1b45d",
    ),
    ("throttle_wave", "android"): (
        "1b01c9fb1bc10075349b252a2227e0f9fcc2494df69d4307b0d5cb3498bbc18c",
        "bad2c05e48651ded27a62955a17e81f2a9a11a33aa85a13b798393460c31892b",
    ),
    ("throttle_wave", "s60"): (
        "dc37064f7d95499e385caf5ed7875329eb7bd6acb84ee7fbe98eb1cf7ddd0df1",
        "e4d27233c9c8b7dc1c86004376321360d258015a75aad2b1fd3d8372fe66e794",
    ),
    ("throttle_wave", "webview"): (
        "906c28d83d8c4f46df069614e6ffb32d0f66b71651f5d12446718296c83c26d0",
        "f9554609d977f41beeeceac41bb0b0bfe9d632be790129c31f6a39a8bfcf0025",
    ),
    ("webview_drain", "android"): (
        "ba9220358852e881352fe12e236ff86b1cca7f22887de3a0ad569bd4814fd216",
        "2c81eb6b37ab69af24d515e8f896784dd4f32b189cbb488ffd0fb5f86ea9b762",
    ),
    ("webview_drain", "s60"): (
        "19b801917eccdbcc5a4a23f5edbd5b0611fd17c1bcef68520e4d27bbca956029",
        "af75747ac386df66138d5c092dd310421db8abc7183d5d6e782d93810226205e",
    ),
    ("webview_drain", "webview"): (
        "8911ab2929b180fe01f4d03a9b29ea37ba3cce3c80b8dc95e642827955948f6a",
        "dabb5a8a8eaf90359782afe91d629481e92776a6aae437637369a36b4a70bc16",
    ),
}


@pytest.fixture(scope="module")
def hubs():
    """(recording, platform) → the observability hub of its traced replay."""
    replayed = {}
    for name, platform in PINS:
        text = (SCENARIOS / f"{name}.jsonl").read_text(encoding="utf-8")
        scenario = ScenarioRecording.parse(text).scenario
        world = build_world(platform, scenario)
        execute(scenario, world)
        replayed[name, platform] = world.hub
    return replayed


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_recording_is_pinned_on_every_platform():
    recordings = {path.stem for path in SCENARIOS.glob("*.jsonl")}
    assert set(PINS) == {(name, p) for name in recordings for p in PLATFORMS}


def test_the_replay_polls_and_drains(hubs):
    hub = hubs["webview_drain", "webview"]
    names = [span.name for span in hub.tracer.finished_spans()]
    assert names.count("bridge:get_notifications") > 100
    drains = hub.metrics.histogram(
        "substrate.latency_ms", operation="webview.bridge.get_notifications"
    )
    assert drains.count > 100  # P² markers well past their exact phase


def test_trace_export_bytes_are_pinned(hubs):
    moved = [
        pair
        for pair, hub in hubs.items()
        if _sha256(hub.export_jsonl()) != PINS[pair][0]
    ]
    assert moved == []


def test_metrics_snapshot_bytes_are_pinned(hubs):
    snapshots = {pair: hub.metrics.snapshot() for pair, hub in hubs.items()}
    assert any(
        "percentiles" in entry
        for entries in snapshots["webview_drain", "webview"].values()
        for entry in entries
    )
    moved = [
        pair
        for pair, snapshot in snapshots.items()
        if _sha256(json.dumps(snapshot, sort_keys=True)) != PINS[pair][1]
    ]
    assert moved == []
