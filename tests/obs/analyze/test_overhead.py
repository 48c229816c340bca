"""Overhead accounting: folding span trees into per-layer self-time."""

import json

import pytest

from repro.obs import Observability, Tracer, export_jsonl
from repro.obs.analyze.overhead import (
    OverheadProfile,
    collapsed_stacks,
    parse_jsonl,
    render_profile_text,
    top_spans_text,
)
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


def make_invocation(tracer, clock, *, platform="android", native_ms=10.0,
                    dispatch_ms=1.0, binding_ms=2.0, fail=False):
    """One dispatch→resilience→binding→substrate tree with known self-times."""
    try:
        with tracer.span("dispatch:getLocation", interface="Location", platform=platform):
            clock.advance(dispatch_ms)  # dispatch self-time
            with tracer.span("resilience:getLocation"):
                with tracer.span("binding:getLocation", platform=platform):
                    clock.advance(binding_ms)  # binding self-time
                    with tracer.span(f"substrate:{platform}.getLocation"):
                        clock.advance(native_ms)
                    if fail:
                        raise RuntimeError("gps down")
    except RuntimeError:
        pass


@pytest.fixture
def clock():
    return SimulatedClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock)


class TestFold:
    def test_layer_self_times(self, tracer, clock):
        make_invocation(tracer, clock)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        entry = profile.operations[("getLocation", "android")]
        assert entry.invocations == 1
        assert entry.layer_self_ms["dispatch"] == pytest.approx(1.0)
        assert entry.layer_self_ms["resilience"] == pytest.approx(0.0)
        assert entry.layer_self_ms["binding"] == pytest.approx(2.0)
        assert entry.layer_self_ms["substrate"] == pytest.approx(10.0)
        assert entry.middleware_ms == pytest.approx(3.0)
        assert entry.native_ms == pytest.approx(10.0)
        assert entry.total_ms == pytest.approx(13.0)

    def test_aggregation_and_percentiles(self, tracer, clock):
        for native in (10.0, 20.0, 30.0):
            make_invocation(tracer, clock, native_ms=native)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        entry = profile.operations[("getLocation", "android")]
        assert entry.invocations == 3
        assert entry.per_invocation("substrate") == pytest.approx(20.0)
        assert entry.latency_ms()["p50"] == pytest.approx(23.0)

    def test_exact_percentiles_over_twenty_invocations(self, tracer, clock):
        """Tree totals 4..23 ms: the nearest-rank p95 and p99 are the
        19th and 20th smallest."""
        for native in range(1, 21):
            make_invocation(tracer, clock, native_ms=float(native))
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        latency = profile.to_dict()["operations"][0]["latency_ms"]
        assert latency == {
            "mean": 13.5, "max": 23.0, "p50": 13.0, "p95": 22.0, "p99": 23.0,
        }

    def test_error_dispatch_counted(self, tracer, clock):
        make_invocation(tracer, clock)
        make_invocation(tracer, clock, fail=True)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        assert profile.operations[("getLocation", "android")].errors == 1

    def test_platforms_are_distinct_rows(self, tracer, clock):
        make_invocation(tracer, clock, platform="android")
        make_invocation(tracer, clock, platform="s60")
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        assert set(profile.operations) == {
            ("getLocation", "android"), ("getLocation", "s60"),
        }

    def test_bridge_rooted_tree_billed_to_dispatch(self, tracer, clock):
        # WebView shape: the bridge crossing is the root, dispatch beneath.
        with tracer.span("bridge:get_location"):
            clock.advance(3.0)  # bridge self-time
            with tracer.span("dispatch:getLocation", platform="webview"):
                with tracer.span("substrate:android.getLocation"):
                    clock.advance(10.0)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        entry = profile.operations[("getLocation", "webview")]
        assert entry.layer_self_ms["bridge"] == pytest.approx(3.0)
        assert entry.native_ms == pytest.approx(10.0)
        assert entry.total_ms == pytest.approx(13.0)

    def test_binding_root_anchors_guard_only_invocations(self, tracer, clock):
        # Callback registration opens no dispatch span; the binding span
        # anchors the invocation instead.
        with tracer.span("binding:addProximityAlert", platform="android"):
            with tracer.span("substrate:android.addProximityAlert"):
                clock.advance(25.0)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        entry = profile.operations[("addProximityAlert", "android")]
        assert entry.invocations == 1
        assert entry.native_ms == pytest.approx(25.0)

    def test_non_invocation_trees_skipped(self, tracer, clock):
        with tracer.span("substrate:android.boot"):
            clock.advance(5.0)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        assert profile.operations == {}

    def test_orphan_parent_treated_as_root(self, tracer, clock):
        make_invocation(tracer, clock)
        records = [
            record
            for record in parse_jsonl(export_jsonl(tracer.finished_spans()))
            if record["name"] != "dispatch:getLocation"
        ]
        profile = OverheadProfile.from_records(records)
        # The resilience subtree survives, anchored by its binding span.
        entry = profile.operations[("getLocation", "android")]
        assert entry.native_ms == pytest.approx(10.0)

    def test_concatenated_exports_resegmented(self, clock):
        chunks = []
        for _ in range(2):  # two tracers → span ids restart
            tracer = Tracer(clock)
            make_invocation(tracer, clock)
            chunks.append(export_jsonl(tracer.finished_spans()))
        profile = OverheadProfile.from_jsonl("".join(chunks))
        assert profile.operations[("getLocation", "android")].invocations == 2


class TestSerialization:
    def test_jsonl_round_trip_byte_identical(self, tracer, clock):
        make_invocation(tracer, clock)
        payload = export_jsonl(tracer.finished_spans())
        assert "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in parse_jsonl(payload)
        ) == payload

    def test_profile_json_deterministic(self, tracer, clock):
        make_invocation(tracer, clock)
        spans = tracer.finished_spans()
        assert (
            OverheadProfile.from_spans(spans).to_json()
            == OverheadProfile.from_spans(spans).to_json()
        )

    def test_to_dict_from_dict_round_trip(self, tracer, clock):
        make_invocation(tracer, clock)
        profile = OverheadProfile.from_spans(tracer.finished_spans())
        rehydrated = OverheadProfile.from_dict(profile.to_dict())
        entry = rehydrated.operations[("getLocation", "android")]
        assert entry.native_ms == pytest.approx(10.0)
        assert rehydrated.to_dict()["time"] == "virtual"

    def test_bad_schema_rejected(self):
        with pytest.raises(ValueError):
            OverheadProfile.from_dict({"schema": "nope"})

    def test_bad_time_domain_rejected(self, tracer, clock):
        """Only virtual-time profile documents load; one without a
        ``time`` field is read as virtual."""
        make_invocation(tracer, clock)
        payload = OverheadProfile.from_spans(tracer.finished_spans()).to_dict()
        for time in ("real", "cpu"):
            with pytest.raises(ValueError, match="not 'virtual'"):
                OverheadProfile.from_dict({**payload, "time": time})
        del payload["time"]
        entry = OverheadProfile.from_dict(payload).operations[
            ("getLocation", "android")
        ]
        assert entry.native_ms == pytest.approx(10.0)


class TestViews:
    def test_render_profile_table(self, tracer, clock):
        make_invocation(tracer, clock)
        rendered = render_profile_text(
            OverheadProfile.from_spans(tracer.finished_spans())
        )
        assert "getLocation" in rendered
        assert "middleware" in rendered
        assert "p99" in rendered

    def test_render_empty_profile(self):
        assert "no dispatch" in render_profile_text(OverheadProfile())

    def test_collapsed_stacks_weights(self, tracer, clock):
        make_invocation(tracer, clock)
        records = parse_jsonl(export_jsonl(tracer.finished_spans()))
        lines = collapsed_stacks(records).splitlines()
        stacks = dict(line.rsplit(" ", 1) for line in lines)
        key = (
            "dispatch:getLocation;resilience:getLocation;"
            "binding:getLocation;substrate:android.getLocation"
        )
        assert stacks[key] == "10000"  # 10ms in integer µs
        assert stacks["dispatch:getLocation"] == "1000"

    def test_top_spans_ranked_by_self_time(self, tracer, clock):
        make_invocation(tracer, clock)
        rendered = top_spans_text(
            parse_jsonl(export_jsonl(tracer.finished_spans())), 2
        )
        lines = rendered.splitlines()
        assert "substrate:android.getLocation" in lines[2]  # top row
