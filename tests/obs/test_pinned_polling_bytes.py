"""Pinned bytes for every traced replay.

Replays each committed recording under ``tests/scenarios/`` on each of
the three platforms with tracing on and pins three sha256 digests: the
tracer's JSONL export, the metrics snapshot, and the metrics snapshot
with every histogram's ``percentiles`` block removed.  The determinism
tests compare two runs of one tree, so they cannot see a byte that a
change to the invocation path, the span and metric plumbing or the
WebView polling path moves; these digests can.  The third one keeps the
counts apart from the estimates: a change to how percentiles are read
from the buckets moves the second digest only.  They change only when
traced behaviour changes on purpose — regenerate them then, and say so.
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

#: (recording, platform) → (trace export sha256, metrics snapshot sha256,
#: sha256 of that snapshot without histogram percentiles).
PINS = {
    ("commute", "android"): (
        "3f0704b1cfb5f16560d2560fc6bcbad5837013c1aa9e5521af53f9139a9010d0",
        "5e4633dc49411f91d0654da848f1a8f1bc799d2bd9ad424dc5843bf27e6ce93b",
        "9c9a5b8443350affd5c36c2e42ea27f07a1daa66ee17b8240764e03614a4ea2f",
    ),
    ("commute", "s60"): (
        "21840ae9be3a78df7a78724384ff47717b47d9f646b739ad18d455696cef4ed7",
        "89d474a3ed0ece0d9c87105496991502c5a67a6703a2e9b0d4c7e37dc3ab39b4",
        "831c6495d92964ac6946df135d28a937644275e0f577f293a5bd0b8de3d9dfd5",
    ),
    ("commute", "webview"): (
        "8940147da27c93845a70dc97dea528529f5c6768bd7e1d7e97407d2973f6de66",
        "3bb41f84989c0d462e7153c3f3321a7c22750c643c32c8e0aa58cb14dd536c01",
        "4a3cc374f0c7517c7be70a4288a275a05265dd5ff59ca72fc8a22f9ed47caec7",
    ),
    ("partition_window", "android"): (
        "389afb64e96f5feffe3c7713c24bdec04af7a28242208368050bc6492a368a3a",
        "0b041b23b039770905a313196f8d1b800fe8e812bd2c93a844f205df03db46bd",
        "043979cde0cc04d6b4ec5ccaf02e13143eb0f5d03e08f025efa6547aa6045c2f",
    ),
    ("partition_window", "s60"): (
        "1f258df94b88f34f1442e37d3911a5288e4d6248af1d3185579094d4ad539f53",
        "3dc9afab68ee34fa6c88464ae20a8e9be8f90eed8e55a8e15df52744b6b5df68",
        "d220e94d5b6f41aa2cfb3d78592225d1940388ac79a11855f598d9ce2dd3bae3",
    ),
    ("partition_window", "webview"): (
        "aac77ec30bea1c590385f1ec9269b2b48d70c6c5d315d49c0e63e2c519b39d6a",
        "598453beec97cc4608db35f5f1d6036360afe59df558d08486f4f1ab0eb2f6f0",
        "c77d388bdf83c9f599fd3bb05b8eff627811f580426d50e0621d13a524da7c77",
    ),
    ("retry_storm", "android"): (
        "e75202ea48caae4e512bcbff877af25d58b2337c3e82eff6d8d11feb28ad8853",
        "800655efe354c3aefd6cc95c7469b006fd9bda6516c935bb99e32c481963573a",
        "2710029240ec409a221fe9ddf8848e6c5b2093af354ae878b5152f02639518a4",
    ),
    ("retry_storm", "s60"): (
        "3e355b5feb69f4a768deb50eeb915cce70c520ffcc5107e078dd61770fb5b1b8",
        "e0a80c3fcc1e417d5b33ef34ac8b5022cc8deda636c30ac7edc65999c75f2bc9",
        "b4ba429e28a145479c479d2ca0ee71ac160539ffd7e2095dc8996908993299c8",
    ),
    ("retry_storm", "webview"): (
        "82cf441bab666070528d1805e076a28ce3cbf3d255efe3546282bbb663deef83",
        "37072331697051b3fa55b01a4a680530f0776297009751452c3c931cb8f1e0e4",
        "a4021eb7716c069d0e044993e43025e4265fbd69743f5dac63887e4c08fad0ab",
    ),
    ("saga_flow", "android"): (
        "a1a5b677cfa2920dbf465af288144ac8c23b819d02334917bf4ae6733048c953",
        "5ce4e6c73b907c01fb5cc8386d933115f0c6d94b7dc77072f24a3c7c0f5df281",
        "1006d1010087f0695188b07f96f87d7a765b648269cc84b220e115f8cabca53e",
    ),
    ("saga_flow", "s60"): (
        "c9ee9906de784726f80573b6783e329d7c8958a8800ab4157425844878383d9c",
        "91dccdca2568fee492d56ec5b395651c8d6d053613591ae0523021cf66e3f590",
        "209fc3b2b2733b09c8d804c7daf4c222d63babfcf45ea4a75a065f9592ec1c53",
    ),
    ("saga_flow", "webview"): (
        "22642212dd4bd30946d1e617d2bd08815d6805d20e1d910eff6e97d4103c5e0c",
        "11833cf6fe35867ce32c4e5a18cdc475cc3dc425c1a1b6a5aa1f089dc6c1b45d",
        "69b9ff770e6ab388aff573bcd5be131faec25ae2a52b5a872c7f7053cf1bd73c",
    ),
    ("throttle_wave", "android"): (
        "1b01c9fb1bc10075349b252a2227e0f9fcc2494df69d4307b0d5cb3498bbc18c",
        "3d2aa0d5461b7be6a34d9777e07cabc72b09733ee7dabc270aff24f7d619033b",
        "02b913585050b8bf9b3e7c8166d59b8558a814528c1497affef5869241ea35e5",
    ),
    ("throttle_wave", "s60"): (
        "dc37064f7d95499e385caf5ed7875329eb7bd6acb84ee7fbe98eb1cf7ddd0df1",
        "a9ac736d689cdbd67de7d209a2c8340bad57fea765117e9f55cd2ce1fa6eb4bf",
        "46ca1ead323e427fcc487c33195dd80d5049a2e42b9ddfb91df7bc30c99bec88",
    ),
    ("throttle_wave", "webview"): (
        "906c28d83d8c4f46df069614e6ffb32d0f66b71651f5d12446718296c83c26d0",
        "15cc4a5acb751e439ea0d0cdc917776441942ee622d5e94a3ab0b72365280f0a",
        "647e6bcdd26eb6ddd2c4b07308888fe6dbfa98709f466df010191551850907d8",
    ),
    ("webview_drain", "android"): (
        "ba9220358852e881352fe12e236ff86b1cca7f22887de3a0ad569bd4814fd216",
        "edf747121acfe4846074c6fca61dad4554317dd1049d5392434ac80f506448c3",
        "428db30a3c5d14a9d1e6d91b186f7f1044c64a9a75ce1648e0be21db701f6f72",
    ),
    ("webview_drain", "s60"): (
        "19b801917eccdbcc5a4a23f5edbd5b0611fd17c1bcef68520e4d27bbca956029",
        "1417ced98c754077108232f04066b1fd85b5683a463b2e679755022aef5153ef",
        "d4fdf005a224a61ef3bd7c7eae31127e824e0a1e594d784074b7b9d466cc7152",
    ),
    ("webview_drain", "webview"): (
        "8911ab2929b180fe01f4d03a9b29ea37ba3cce3c80b8dc95e642827955948f6a",
        "fe7e15fc848ff52a6614ddf6c43112b81ea0f08658ce4837f9f2f0de886179cb",
        "3cddbc5de1d7cb61eb69295eb8608129d4069e136af3dd62b60469a8ec56ff34",
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
    assert drains.count > 100  # every poll observes the bridge latency


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


def test_metrics_counts_are_pinned_without_percentiles(hubs):
    moved = []
    for pair, hub in hubs.items():
        snapshot = hub.metrics.snapshot()
        for entries in snapshot.values():
            for entry in entries:
                entry.pop("percentiles", None)
        if _sha256(json.dumps(snapshot, sort_keys=True)) != PINS[pair][2]:
            moved.append(pair)
    assert moved == []
