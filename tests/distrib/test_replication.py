"""Replicated tables: versions, LWW merge, gossip, partitions, quorum."""

import pytest

from repro.distrib import (
    DistribConfig,
    DistribRuntime,
    PartitionMap,
    ReplicaState,
    VersionedEntry,
)
from repro.errors import ConfigurationError, ProxyReplicaUnavailableError
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.distrib

REGIONS = ("ap-south", "eu-west", "us-east")


@pytest.fixture
def tier():
    scheduler = Scheduler(SimulatedClock())
    config = DistribConfig(regions=REGIONS, seed=1)
    return DistribRuntime(scheduler, config)


class TestConfig:
    def test_rejects_duplicate_regions(self):
        with pytest.raises(ConfigurationError):
            DistribConfig(regions=("a", "a"))

    def test_rejects_quorum_beyond_regions(self):
        with pytest.raises(ConfigurationError):
            DistribConfig(regions=("a", "b"), write_quorum=3)

    @pytest.mark.parametrize(
        "settings",
        [
            {"gossip_interval_ms": float("nan")},  # anti-entropy never ran
            {"gossip_interval_ms": float("inf")},
            {"replication_delay_ms": float("nan")},
            {"replication_delay_ms": float("inf")},
            {"write_quorum": 1.5},
            {"write_quorum": True},
            {"seed": 1.0},
        ],
        ids=lambda settings: "-".join(f"{k}={v}" for k, v in settings.items()),
    )
    def test_rejects_values_it_cannot_run(self, settings):
        with pytest.raises(ConfigurationError):
            DistribConfig(regions=REGIONS, **settings)

    def test_home_region_is_first(self):
        assert DistribConfig(regions=REGIONS).home_region == "ap-south"


class TestReplicaState:
    def test_merge_applies_newer_versions_only(self):
        replica = ReplicaState("a")
        assert replica.merge(VersionedEntry("k", 1, (1, "a"), 0.0))
        assert not replica.merge(VersionedEntry("k", 0, (1, "a"), 0.0))
        assert replica.merge(VersionedEntry("k", 2, (2, "b"), 0.0))
        assert replica.get("k").value == 2

    def test_content_hash_tracks_state(self):
        a, b = ReplicaState("a"), ReplicaState("b")
        assert a.content_hash() == b.content_hash()
        entry = VersionedEntry("k", "v", (1, "a"), 0.0)
        a.merge(entry)
        assert a.content_hash() != b.content_hash()
        b.merge(entry)
        assert a.content_hash() == b.content_hash()


class TestPartitionMap:
    def test_edges_are_symmetric(self):
        partitions = PartitionMap()
        partitions.partition("a", "b")
        assert not partitions.connected("a", "b")
        assert not partitions.connected("b", "a")
        partitions.heal("b", "a")
        assert partitions.connected("a", "b")

    def test_self_edge_is_never_cut(self):
        partitions = PartitionMap()
        partitions.partition("a", "a")
        assert partitions.connected("a", "a")
        assert not partitions.active


class TestReplication:
    def test_write_visible_at_origin_immediately(self, tier):
        table = tier.table("t")
        table.put("k", "v", region="eu-west")
        assert table.get("k", region="eu-west") == "v"
        assert table.get("k", region="ap-south") is None

    def test_peers_converge_after_replication_delay(self, tier):
        table = tier.table("t")
        table.put("k", "v")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        for region in REGIONS:
            assert table.get("k", region=region) == "v"
        assert table.converged

    def test_delete_tombstone_replicates(self, tier):
        table = tier.table("t")
        table.put("k", "v")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        table.delete("k")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        for region in REGIONS:
            assert table.get("k", region=region) is None
        assert table.converged

    def test_partition_blocks_peer_until_gossip_heals(self, tier):
        table = tier.table("t")
        tier.partition("ap-south", "eu-west")
        table.put("k", "v")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        assert table.get("k", region="us-east") == "v"
        assert table.get("k", region="eu-west") is None
        tier.heal_all()
        rounds = tier.run_until_converged()
        assert rounds >= 1
        assert table.get("k", region="eu-west") == "v"

    def test_in_flight_message_cut_by_late_partition(self, tier):
        table = tier.table("t")
        table.put("k", "v")
        tier.partition("ap-south", "eu-west")  # after send, before apply
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        assert table.get("k", region="eu-west") is None

    def test_lww_across_regions(self, tier):
        table = tier.table("t")
        table.put("k", "first", region="ap-south")
        table.put("k", "second", region="eu-west")
        tier.heal_all()
        tier.run_until_converged()
        for region in REGIONS:
            assert table.get("k", region=region) == "second"

    def test_unknown_region_raises(self, tier):
        with pytest.raises(KeyError):
            tier.table("t").put("k", "v", region="mars")


class TestQuorum:
    def test_quorum_failure_raises_1014_with_context(self):
        scheduler = Scheduler(SimulatedClock())
        config = DistribConfig(regions=("a", "b", "c"), write_quorum=3, seed=0)
        tier = DistribRuntime(scheduler, config)
        table = tier.table("t")
        tier.partition("a", "b")
        with pytest.raises(ProxyReplicaUnavailableError) as excinfo:
            table.put("k", "v", region="a")
        error = excinfo.value
        assert error.error_code == 1014
        assert error.transient
        assert error.context == {
            "table": "t",
            "region": "a",
            "key": "k",
            "quorum": 3,
            "reachable": 2,
        }
        # The refused write left no trace anywhere.
        for region in ("a", "b", "c"):
            assert table.get("k", region=region) is None

    def test_write_succeeds_once_quorum_restored(self):
        scheduler = Scheduler(SimulatedClock())
        config = DistribConfig(regions=("a", "b"), write_quorum=2, seed=0)
        tier = DistribRuntime(scheduler, config)
        tier.partition("a", "b")
        with pytest.raises(ProxyReplicaUnavailableError):
            tier.table("t").put("k", "v")
        tier.heal("a", "b")
        tier.table("t").put("k", "v")
        assert tier.table("t").get("k") == "v"


class TestObservability:
    def test_replication_spans_and_counters(self):
        scheduler = Scheduler(SimulatedClock())
        hub = Observability()
        tier = DistribRuntime(
            scheduler,
            DistribConfig(regions=("a", "b"), seed=0),
            observability=hub,
        )
        tier.table("t").put("k", "v")
        scheduler.run_for(tier.config.replication_delay_ms)
        tier.sweep_now()
        names = [span.name for span in hub.tracer.finished_spans()]
        assert "replicate:t" in names
        assert "gossip:t" in names
        assert hub.metrics.total("distrib.writes") == 1
        assert hub.metrics.total("distrib.replication_applied") == 1
        assert hub.metrics.total("distrib.gossip_sweeps") == 1

    def test_partition_spans_record_cut_and_heal(self):
        scheduler = Scheduler(SimulatedClock())
        hub = Observability()
        tier = DistribRuntime(
            scheduler,
            DistribConfig(regions=("a", "b"), seed=0),
            observability=hub,
        )
        tier.partition("b", "a")
        tier.heal_all()
        spans = [
            span for span in hub.tracer.finished_spans()
            if span.name == "partition:a|b"
        ]
        assert [span.attributes["event"] for span in spans] == ["cut", "heal"]
        assert hub.metrics.total("distrib.partitions") == 1
        assert hub.metrics.total("distrib.heals") == 1


class TestRuntimeDriving:
    def test_partition_window_rides_the_virtual_clock(self, tier):
        table = tier.table("t")
        tier.partition_window("ap-south", "eu-west", 100.0, 400.0)
        tier.scheduler.run_until(150.0)
        table.put("k", "v")
        tier.scheduler.run_until(380.0)
        assert table.get("k", region="eu-west") is None  # cut in flight
        tier.scheduler.run_until(500.0)
        tier.run_until_converged()
        assert table.get("k", region="eu-west") == "v"

    def test_partition_window_rejects_inverted_range(self, tier):
        with pytest.raises(ValueError):
            tier.partition_window("ap-south", "eu-west", 200.0, 100.0)

    def test_run_until_converged_raises_while_partitioned(self, tier):
        # Isolate eu-west completely — with only one edge cut, gossip
        # routes the update around the partition via the third region.
        tier.partition("ap-south", "eu-west")
        tier.partition("us-east", "eu-west")
        tier.table("t").put("k", "v")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        with pytest.raises(RuntimeError):
            tier.run_until_converged(max_rounds=3)

    def test_tick_sweeps_on_gossip_interval(self, tier):
        table = tier.table("t")
        tier.partition("ap-south", "eu-west")
        table.put("k", "v")
        tier.scheduler.run_for(tier.config.replication_delay_ms)
        tier.heal_all()
        tier.scheduler.clock.advance(tier.config.gossip_interval_ms)
        tier.tick()
        assert table.get("k", region="eu-west") == "v"

    def test_export_json_is_deterministic(self):
        def run():
            scheduler = Scheduler(SimulatedClock())
            tier = DistribRuntime(
                scheduler, DistribConfig(regions=REGIONS, seed=9)
            )
            table = tier.table("t")
            tier.partition("ap-south", "us-east")
            for index in range(10):
                table.put(f"k{index}", index, region=REGIONS[index % 3])
            tier.heal_all()
            tier.run_until_converged()
            return tier.export_json()

        assert run() == run()
