"""Tiered caches: read-through, write-behind, invalidation, staleness."""

import pytest

from repro.distrib import DistribConfig, DistribRuntime
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.distrib

REGIONS = ("ap-south", "eu-west")


@pytest.fixture
def hub():
    return Observability()


@pytest.fixture
def tier(hub):
    scheduler = Scheduler(SimulatedClock())
    return DistribRuntime(
        scheduler,
        DistribConfig(regions=REGIONS, seed=2),
        observability=hub,
    )


class TestReadThrough:
    def test_miss_without_loader_returns_none(self, tier):
        assert tier.cache("fixes").get("absent") is None

    def test_miss_falls_back_to_backing_table(self, tier):
        cache = tier.cache("fixes")
        cache.backing.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.l1_slot("k") == "v"  # populated on the way through


class TestWriteBehind:
    def test_write_reaches_backing_only_after_delay(self, tier):
        cache = tier.cache("fixes")
        cache.put("k", "v")
        assert cache.l1_slot("k") == "v"
        assert cache.backing.get("k") is None
        tier.scheduler.run_for(tier.config.write_behind_delay_ms)
        assert cache.backing.get("k") == "v"

    def test_rapid_rewrites_coalesce_into_one_flush(self, tier, hub):
        cache = tier.cache("fixes")
        cache.put("k", "v1")
        cache.put("k", "v2")
        cache.put("k", "v3")
        tier.scheduler.run_for(tier.config.write_behind_delay_ms)
        assert cache.backing.get("k") == "v3"
        assert hub.metrics.total("distrib.cache_flushes") == 1

    def test_flush_pending_drains_the_buffer_now(self, tier):
        cache = tier.cache("fixes")
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.flush_pending() == 2
        assert cache.backing.get("a") == 1
        assert cache.backing.get("b") == 2
        assert cache.flush_pending() == 0


class TestInvalidation:
    def test_write_invalidates_peer_l1_after_delay(self, tier, hub):
        cache = tier.cache("fixes")
        cache.put("k", "old", region="eu-west")
        cache.put("k", "new", region="ap-south")
        assert cache.l1_slot("k", region="eu-west") == "old"
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        assert cache.l1_slot("k", region="eu-west") is None
        assert hub.metrics.total("distrib.cache_invalidations_applied") >= 1

    def test_invalidation_dropped_under_partition(self, tier, hub):
        cache = tier.cache("fixes")
        cache.put("k", "old", region="eu-west")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        tier.partition("ap-south", "eu-west")
        cache.put("k", "new", region="ap-south")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        assert cache.l1_slot("k", region="eu-west") == "old"  # never told
        assert hub.metrics.total("distrib.cache_invalidations_dropped") >= 1

    def test_explicit_invalidate_drops_slot_and_pending_write(self, tier):
        cache = tier.cache("fixes")
        cache.put("k", "v")
        cache.invalidate("k")
        assert cache.l1_slot("k") is None
        tier.scheduler.run_for(tier.config.write_behind_delay_ms)
        assert cache.backing.get("k") is None  # buffered write cancelled


class TestStaleness:
    def test_stale_hit_counted_when_backing_moves_ahead(self, tier, hub):
        cache = tier.cache("fixes")
        cache.put("k", "v1")
        cache.flush_pending()
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        # A newer write lands in the backing table directly (as a peer
        # region's replicated write would), leaving the L1 slot behind.
        cache.backing.put("k", "v2")
        assert cache.get("k") == "v1"  # stale but served
        assert hub.metrics.total("distrib.cache_stale_reads") == 1

    def test_expired_slot_rereads_backing(self, tier):
        cache = tier.cache("fixes")
        cache.put("k", "v1")
        cache.flush_pending()
        cache.backing.put("k", "v2")
        tier.scheduler.clock.advance(tier.config.cache_staleness_ms + 1.0)
        assert cache.get("k") == "v2"


class TestLocationFixAdapter:
    def test_get_put_invalidate_and_counters(self, tier):
        adapter = tier.location_cache("loc")
        assert adapter.get() is None
        assert adapter.misses == 1
        adapter.put({"lat": 1.0})
        assert adapter.get() == {"lat": 1.0}
        assert adapter.hits == 1
        adapter.invalidate()
        assert adapter.get() is None
        assert adapter.misses == 2

    def test_fix_converges_to_other_regions_via_backing(self, tier):
        adapter = tier.location_cache("loc")
        adapter.put({"lat": 2.0})
        tier.cache("location").flush_pending()
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        backing = tier.cache("location").backing
        assert backing.get("fix:loc", region="eu-west") == {"lat": 2.0}
