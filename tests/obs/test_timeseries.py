"""Unit tests for the virtual-clock metric time-series sampler."""

import pytest

from repro.obs import MetricsRegistry, TimeSeriesSampler
from repro.obs.timeseries import CAPACITY
from repro.util.clock import SimulatedClock

pytestmark = pytest.mark.obs


def make_sampler():
    clock = SimulatedClock()
    metrics = MetricsRegistry()
    sampler = TimeSeriesSampler(metrics, clock=clock)
    return clock, metrics, sampler


class TestSampling:
    def test_tracks_gauge_over_ticks(self):
        clock, metrics, sampler = make_sampler()
        depth = metrics.gauge("runtime.queue_depth", source="p", shard="0")
        sampler.track("runtime.queue_depth")
        for value in (1, 3, 2):
            depth.set(value)
            clock.advance(10.0)
            sampler.tick()
        series = sampler.series("runtime.queue_depth", source="p", shard="0")
        assert series.values() == [1.0, 3.0, 2.0]
        assert [t for t, _, _ in series.points] == [10.0, 20.0, 30.0]

    def test_same_instant_updates_in_place_and_keeps_peak(self):
        clock, metrics, sampler = make_sampler()
        gauge = metrics.gauge("g")
        sampler.track("g")
        gauge.set(64)
        sampler.tick()
        gauge.set(12)
        sampler.tick()  # same virtual instant
        series = sampler.series("g")
        assert len(series.points) == 1
        t, value, peak = series.points[0]
        assert (value, peak) == (12.0, 64.0)

    def test_capacity_evicts_and_counts_dropped(self):
        clock, metrics, sampler = make_sampler()
        counter = metrics.counter("c")
        sampler.track("c")
        for _ in range(CAPACITY + 2):
            counter.inc()
            clock.advance(1.0)
            sampler.tick()
        series = sampler.series("c")
        assert series.values() == [float(n) for n in range(3, CAPACITY + 3)]
        assert series.dropped == 2

    def test_label_subset_selector(self):
        clock, metrics, sampler = make_sampler()
        metrics.gauge("g", source="a", shard="0").set(1)
        metrics.gauge("g", source="b", shard="0").set(2)
        sampler.track("g", source="a")
        clock.advance(1.0)
        sampler.tick()
        tracked = sampler.tracked_series()
        assert [series.labels for series in tracked] == [
            {"source": "a", "shard": "0"}
        ]

    def test_histogram_tracked_by_count(self):
        clock, metrics, sampler = make_sampler()
        hist = metrics.histogram("h")
        sampler.track("h")
        hist.observe(5.0)
        hist.observe(7.0)
        clock.advance(1.0)
        sampler.tick()
        assert sampler.series("h").values() == [2.0]

    def test_sink_sees_every_appended_point(self):
        clock, metrics, sampler = make_sampler()
        gauge = metrics.gauge("g")
        sampler.track("g")
        seen = []
        sampler.add_sink(lambda m, labels, t, v: seen.append((m, t, v)))
        gauge.set(4)
        clock.advance(2.0)
        sampler.tick()
        gauge.set(9)
        sampler.tick()  # in-place update: no sink call
        assert seen == [("g", 2.0, 4.0)]


class TestExport:
    def test_series_are_sorted_and_deterministic(self):
        def run():
            clock, metrics, sampler = make_sampler()
            for name in ("b", "a"):
                metrics.gauge("g", source=name).set(1)
            sampler.track("g")
            clock.advance(1.0)
            sampler.tick()
            return [
                (series.metric, series.labels, list(series.points))
                for series in sampler.tracked_series()
            ]

        first, second = run(), run()
        assert first == second
        assert [labels["source"] for _, labels, _ in first] == ["a", "b"]
        assert first[0][2] == [(1.0, 1.0, 1.0)]

    def test_render_text_lists_series(self):
        clock, metrics, sampler = make_sampler()
        metrics.gauge("g", source="p").set(3)
        sampler.track("g")
        clock.advance(5.0)
        sampler.tick()
        text = sampler.render_text()
        assert "g{source=p}" in text
        assert "last=3@5.0ms" in text
