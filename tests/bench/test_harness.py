"""Tests for the Figure-10 measurement harness.

These validate the harness logic with small repetition counts; the real
reproduction runs in ``benchmarks/``, whose per-bar loop these reuse.
"""

import pytest

from benchmarks.bench_fig10_invocation_overhead import measure_bar
from repro.apps.workforce import scenario
from repro.bench.calibration import PAPER_FIGURE_10
from repro.bench.harness import APIS, Fig10Runner, format_table


@pytest.fixture(scope="module")
def runner():
    return Fig10Runner()


class TestMeasurement:
    @pytest.mark.parametrize("platform", ["android", "s60", "webview"])
    @pytest.mark.parametrize("api", APIS)
    def test_without_proxy_matches_calibration(self, runner, platform, api):
        samples = measure_bar(runner, platform, api, with_proxy=False, repetitions=3)
        paper_without = PAPER_FIGURE_10[(api, platform)][0]
        for virtual_ms, _ in samples:
            assert virtual_ms == pytest.approx(paper_without, rel=0.01)

    @pytest.mark.parametrize("platform", ["android", "s60", "webview"])
    @pytest.mark.parametrize("api", APIS)
    def test_proxy_virtual_cost_identical(self, runner, platform, api):
        """The proxy adds NO virtual (native) cost — only real Python time."""
        without = measure_bar(runner, platform, api, with_proxy=False, repetitions=3)
        with_proxy = measure_bar(runner, platform, api, with_proxy=True, repetitions=3)
        assert with_proxy[0][0] == pytest.approx(without[0][0], rel=0.01)

    def test_real_overhead_is_small_fraction(self, runner):
        """Shape criterion: proxy overhead ≪ native latency."""
        samples = measure_bar(
            runner, "s60", "getLocation", with_proxy=True, repetitions=5
        )
        for virtual_ms, real_ms in samples:
            assert real_ms < 0.05 * virtual_ms

    def test_sample_fields(self, runner):
        samples = measure_bar(
            runner, "android", "sendSMS", with_proxy=True, repetitions=2
        )
        assert len(samples) == 2
        for virtual_ms, real_ms in samples:
            assert virtual_ms == pytest.approx(
                PAPER_FIGURE_10[("sendSMS", "android")][0], rel=0.01
            )
            assert real_ms >= 0.0

    def test_unknown_platform_rejected(self, runner):
        with pytest.raises(ValueError):
            measure_bar(runner, "palm", "sendSMS", with_proxy=False, repetitions=1)


class TestCleanup:
    def test_native_webview_alerts_are_removed(self, runner, monkeypatch):
        """The native WebView bar's cleanup unregisters every alert it
        added, context table included, not just the alert list."""
        worlds = []
        build_webview = scenario.build_webview

        def recording_build(**kwargs):
            worlds.append(build_webview(**kwargs))
            return worlds[-1]

        monkeypatch.setattr(scenario, "build_webview", recording_build)
        bench = runner._bench_for("webview", with_proxy=False)
        state = worlds[0].platform.android.location_state
        for _ in range(3):
            bench.invoke["addProximityAlert"]()
            assert state.active_alert_count == 1
            bench.cleanup["addProximityAlert"]()
            assert state.active_alert_count == 0
            assert state._alert_contexts == {}


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) >= 6 for line in lines)
