"""Profile diff and the perf-regression gate."""

import json

import pytest

from repro.obs import Tracer, export_jsonl
from repro.obs.analyze.diff import diff_profiles, load_profile_text
from repro.obs.analyze.overhead import OverheadProfile
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


def profile_with(native_ms, *, dispatch_ms=1.0, invocations=2):
    clock = SimulatedClock()
    tracer = Tracer(clock)
    for _ in range(invocations):
        with tracer.span("dispatch:getLocation", platform="android"):
            clock.advance(dispatch_ms)
            with tracer.span("substrate:android.getLocation"):
                clock.advance(native_ms)
    return OverheadProfile.from_spans(tracer.finished_spans())


class TestDiff:
    def test_identical_profiles_pass(self):
        base = profile_with(10.0)
        diff = diff_profiles(base, profile_with(10.0))
        assert diff.passed
        assert diff.regressions() == []
        assert "no per-layer regressions" in diff.render_text()

    def test_regression_flagged_beyond_both_thresholds(self):
        diff = diff_profiles(profile_with(10.0), profile_with(13.0))
        regressions = diff.regressions()
        assert not diff.passed
        (delta,) = [d for d in regressions if d.layer == "substrate"]
        assert delta.base_ms == pytest.approx(10.0)
        assert delta.new_ms == pytest.approx(13.0)

    def test_growth_within_noise_floor_ignored(self):
        # +0.02ms per invocation: above 0% relative but below the 0.05ms
        # absolute noise floor.
        diff = diff_profiles(profile_with(10.0), profile_with(10.02))
        assert diff.passed

    def test_relative_threshold_protects_large_bases(self):
        # +0.5ms on a 100ms base is 0.5%: above the absolute floor but
        # below the 10% relative bar.
        diff = diff_profiles(profile_with(100.0), profile_with(100.5))
        assert diff.passed

    def test_custom_thresholds(self):
        diff = diff_profiles(
            profile_with(100.0), profile_with(100.5),
            noise_ms=0.1, noise_frac=0.001,
        )
        assert not diff.passed

    def test_missing_and_new_operations_reported(self):
        base = profile_with(10.0)
        empty = OverheadProfile()
        diff = diff_profiles(base, empty)
        assert diff.missing_in_new == ["getLocation/android"]
        assert not diff.passed

        diff = diff_profiles(empty, base)
        assert diff.new_operations == ["getLocation/android"]
        assert diff.passed  # new coverage is not a regression

    def test_to_dict_schema(self):
        diff = diff_profiles(profile_with(10.0), profile_with(13.0))
        payload = diff.to_dict()
        assert payload["schema"] == "repro.obs.diff/v1"
        assert payload["passed"] is False
        json.dumps(payload)  # JSON-able


class TestLoadProfile:
    def test_loads_trace_jsonl(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("dispatch:op", platform="android"):
            clock.advance(5.0)
        profile = load_profile_text(export_jsonl(tracer.finished_spans()))
        assert ("op", "android") in profile.operations

    def test_loads_profile_document(self):
        saved = profile_with(10.0).to_json()
        profile = load_profile_text(saved)
        assert profile.operations[("getLocation", "android")].native_ms == (
            pytest.approx(20.0)
        )

    def test_loads_bench_document_with_embedded_profile(self):
        bench = json.dumps(
            {
                "schema": "repro.bench/v1",
                "name": "fig10",
                "metrics": {"profile": profile_with(10.0).to_dict()},
            }
        )
        profile = load_profile_text(bench)
        assert ("getLocation", "android") in profile.operations

    def test_unrecognized_document_rejected(self):
        with pytest.raises(ValueError):
            load_profile_text(json.dumps({"what": "ever"}))
