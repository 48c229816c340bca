"""Unit tests for the location-fix cache's staleness window and the
runtime's proxy-aware location helper."""

import pytest

from repro.apps.workforce import scenario
from repro.apps.workforce.proxied import launch_on_android
from repro.runtime import ConcurrencyRuntime, LocationFixCache
from repro.runtime.coalesce import STALENESS_MS
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency


@pytest.fixture
def world():
    return Scheduler(SimulatedClock())


class TestLocationFixCache:
    def test_fresh_fix_is_reused(self, world):
        cache = LocationFixCache(world.clock)
        cache.put("fix-1")
        world.clock.advance(STALENESS_MS - 1.0)
        assert cache.get() == "fix-1"
        world.clock.advance(1.0)
        assert cache.get() == "fix-1"  # exactly at the window's edge
        assert cache.hits == 2

    def test_stale_fix_is_not_reused(self, world):
        cache = LocationFixCache(world.clock)
        cache.put("fix-1")
        world.clock.advance(STALENESS_MS + 1.0)
        assert cache.get() is None
        assert cache.misses == 1

    def test_invalidate(self, world):
        cache = LocationFixCache(world.clock)
        cache.put("fix-1")
        cache.invalidate()
        assert cache.get() is None


@pytest.fixture
def android():
    sc = scenario.build_android()
    logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
    sc.platform.run_for(10_000.0)
    return sc, logic


class TestRuntimeLocationHelper:
    def test_second_fix_within_window_is_cached(self, android):
        sc, logic = android
        runtime = ConcurrencyRuntime(sc.device.scheduler, shards=1)
        first = runtime.get_location(logic.location)
        runtime.drain()
        before = sc.platform.clock.now_ms
        second = runtime.get_location(logic.location)
        # cache hit: resolved immediately, no virtual charge, same fix
        assert second.done()
        assert sc.platform.clock.now_ms == before
        assert second.result() is first.result()

    def test_fresh_bypasses_but_refreshes_cache(self, android):
        sc, logic = android
        runtime = ConcurrencyRuntime(sc.device.scheduler, shards=1)
        runtime.get_location(logic.location)
        runtime.drain()
        fresh = runtime.get_location(logic.location, fresh=True)
        assert not fresh.done()  # really went to the GPS
        runtime.drain()
        again = runtime.get_location(logic.location)
        assert again.result() is fresh.result()

    def test_stale_fix_triggers_new_read(self, android):
        sc, logic = android
        runtime = ConcurrencyRuntime(sc.device.scheduler, shards=1)
        runtime.get_location(logic.location)
        runtime.drain()
        sc.platform.run_for(STALENESS_MS + 1_000.0)
        second = runtime.get_location(logic.location)
        assert not second.done()
        runtime.drain()
        assert second.error is None
