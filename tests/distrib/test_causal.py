"""Causal context: vector clocks, visibility tracking, the audit.

The monitor's detectors are *negative* checks — healthy seeded runs
never fire them (monotone table counters, invalidation pops the slot it
targets) — so the regression half of this suite forges the states the
detectors exist for and proves each fires exactly once, counts, lands
in the trace and triggers a flight dump.
"""

import pytest

from repro.distrib import (
    CausalMonitor,
    CausalTracker,
    DistribConfig,
    DistribRuntime,
    decode_vc,
    encode_vc,
    vc_dominates,
)
from repro.distrib.cache import _L1Slot
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.distrib

REGIONS = ("ap-south", "eu-west")


def build_tier(*, observability=None, regions=REGIONS, **overrides):
    scheduler = Scheduler(SimulatedClock())
    config = DistribConfig(regions=regions, seed=1, **overrides)
    return DistribRuntime(scheduler, config, observability=observability)


class TestVectorClockCodec:
    def test_roundtrip(self):
        vc = {"ap-south": 3, "eu-west": 1}
        assert decode_vc(encode_vc(vc)) == vc

    def test_zero_components_elided(self):
        assert encode_vc({"a": 0, "b": 2}) == "b:2"
        assert encode_vc({}) == ""
        assert decode_vc("") == {}

    def test_region_names_with_colons_survive(self):
        vc = {"dc:rack:1": 7}
        assert decode_vc(encode_vc(vc)) == vc

    def test_domination_is_strict(self):
        assert vc_dominates({"a": 2, "b": 1}, {"a": 1})
        assert not vc_dominates({"a": 1}, {"a": 1})  # equal
        assert not vc_dominates({"a": 2}, {"b": 1})  # concurrent
        assert not vc_dominates({"a": 1}, {"a": 2})
        # Zero components don't break equality or comparison.
        assert not vc_dominates({"a": 1, "b": 0}, {"a": 1})


class TestCausalTracker:
    def test_tick_and_observe(self):
        tracker = CausalTracker(REGIONS)
        assert tracker.tick("ap-south") == {"ap-south": 1}
        assert tracker.tick("ap-south") == {"ap-south": 2}
        # Delivery max-merges then ticks the receiving region.
        merged = tracker.observe("eu-west", {"ap-south": 2})
        assert merged == {"ap-south": 2, "eu-west": 1}

    def test_note_visible_records_first_sighting_and_gauge(self):
        hub = Observability()
        tracker = CausalTracker(REGIONS, metrics=hub.metrics)
        stamp = tracker.note_write("t", "k", (1, "ap-south"), "ap-south", 100.0)
        assert stamp.visible == {"ap-south": 100.0}
        assert stamp.version_label == "1@ap-south"
        lag = tracker.note_visible("t", "k", (1, "ap-south"), "eu-west", 350.0)
        assert lag == 250.0
        # Re-sighting (a gossip merge after the replication apply) is not
        # a new visibility event.
        assert tracker.note_visible(
            "t", "k", (1, "ap-south"), "eu-west", 900.0
        ) is None
        assert stamp.visible["eu-west"] == 350.0
        gauge = hub.metrics.gauge("distrib.lag_ms", table="t", region="eu-west")
        assert gauge.value == 250.0

    def test_unknown_write_is_ignored(self):
        tracker = CausalTracker(REGIONS)
        assert tracker.note_visible("t", "k", (9, "x"), "eu-west", 1.0) is None


class TestLwwInversionAudit:
    def _forged_stamps(self, tracker):
        prior = tracker.note_write(
            "t", "k", (1, "ap-south"), "ap-south", 0.0, vc={"ap-south": 5}
        )
        incoming = tracker.note_write(
            "t", "k", (2, "eu-west"), "eu-west", 1.0, vc={"ap-south": 1}
        )
        return prior, incoming

    def test_flags_exactly_once(self):
        tracker = CausalTracker(REGIONS)
        monitor = CausalMonitor()
        prior, incoming = self._forged_stamps(tracker)
        record = monitor.check_lww("t", "k", "ap-south", incoming, prior, 2.0)
        assert record["kind"] == "lww_causality_inversion"
        assert record["winner"] == "2@eu-west"
        assert record["overwritten"] == "1@ap-south"
        # The same inversion re-observed (gossip echo) does not re-flag.
        assert monitor.check_lww("t", "k", "ap-south", incoming, prior, 3.0) is None
        assert len(monitor.violations) == 1
        assert not monitor.clean

    def test_healthy_order_is_silent(self):
        tracker = CausalTracker(REGIONS)
        monitor = CausalMonitor()
        first = tracker.note_write("t", "k", (1, "ap-south"), "ap-south", 0.0)
        tracker.note_visible("t", "k", (1, "ap-south"), "eu-west", 250.0)
        second = tracker.note_write("t", "k", (2, "eu-west"), "eu-west", 300.0)
        assert monitor.check_lww("t", "k", "eu-west", second, first, 300.0) is None
        assert monitor.clean

    def test_injected_inversion_through_replication(self):
        """End-to-end: forge the stamps' clocks after two real writes and
        let the replication apply itself detect the inversion."""
        hub = Observability()
        tier = build_tier(observability=hub)
        table = tier.table("t")
        table.put("k", "old", region="ap-south")
        table.put("k", "new", region="eu-west")
        # Invert happens-before: the value LWW will overwrite claims a
        # causally-later clock than the winner.
        tier.causal.lookup("t", "k", (1, "ap-south")).vc = {"ap-south": 9}
        tier.causal.lookup("t", "k", (2, "eu-west")).vc = {"ap-south": 1}
        tier.scheduler.run_for(10_000.0)
        tier.run_until_converged()
        kinds = [v["kind"] for v in tier.monitor.violations]
        assert kinds == ["lww_causality_inversion"]
        assert hub.metrics.total("distrib.causal_violations") == 1
        # The violation reached the trace as a causal.violation event.
        assert '"causal.violation"' in hub.export_jsonl()


class TestStaleReadAudit:
    def test_resurrected_slot_flags_exactly_once(self):
        hub = Observability()
        tier = build_tier(observability=hub)
        cache = tier.cache("c")
        cache.put("k", "v1", region="ap-south")
        tier.scheduler.run_for(5_000.0)  # flush + invalidation delivery
        delivered_ms, _ = tier.monitor._delivered[("c", "k", "eu-west")]
        # Resurrect the popped slot with a cached_at that predates the
        # delivered invalidation — the state delivery had removed.
        now = tier.scheduler.clock.now_ms
        cache._l1["eu-west"]["k"] = _L1Slot("stale", delivered_ms - 1.0, None)
        assert cache.get("k", region="eu-west") == "stale"
        assert cache.get("k", region="eu-west") == "stale"
        kinds = [v["kind"] for v in tier.monitor.violations]
        assert kinds == ["stale_read_after_invalidation"]
        record = tier.monitor.violations[0]
        assert record["region"] == "eu-west"
        assert record["invalidated_at_ms"] == delivered_ms
        assert now >= delivered_ms

    def test_fresh_slot_after_invalidation_is_silent(self):
        tier = build_tier()
        cache = tier.cache("c")
        cache.put("k", "v1", region="ap-south")
        tier.scheduler.run_for(5_000.0)
        # Normal repopulation: cached after the delivered invalidation.
        assert cache.get("k", region="eu-west") == "v1"
        assert tier.monitor.clean


class TestFlightDumpOnViolation:
    def test_violation_triggers_incident_dump(self):
        hub = Observability()
        flight = hub.install_flight_recorder()
        monitor = CausalMonitor(observability=hub)
        tracker = CausalTracker(REGIONS)
        prior = tracker.note_write(
            "t", "k", (1, "ap-south"), "ap-south", 0.0, vc={"ap-south": 5}
        )
        incoming = tracker.note_write(
            "t", "k", (2, "eu-west"), "eu-west", 1.0, vc={"ap-south": 1}
        )
        monitor.check_lww("t", "k", "ap-south", incoming, prior, 2.0)
        assert [d["reason"] for d in flight.dumps] == ["causal.violation"]


class TestHealthyRunsAreClean:
    def test_mixed_workload_audit_clean(self):
        hub = Observability()
        tier = build_tier(observability=hub)
        table = tier.table("reports")
        cache = tier.cache("c")
        for step in range(4):
            region = REGIONS[step % 2]
            table.put(f"k{step % 2}", step, region=region)
            cache.put("shared", step, region=region)
            tier.scheduler.run_for(600.0)
            cache.get("shared", region=REGIONS[(step + 1) % 2])
        tier.scheduler.run_for(5_000.0)
        tier.run_until_converged()
        assert tier.monitor.clean
        assert hub.metrics.total("distrib.causal_violations") == 0

    def test_export_state_carries_clocks_and_violations(self):
        tier = build_tier()
        tier.table("t").put("k", "v", region="ap-south")
        state = tier.export_state()
        assert set(state["causal"]["clocks"]) == set(REGIONS)
        assert state["causal"]["clocks"]["ap-south"] == {"ap-south": 1}
        assert state["causal"]["violations"] == []
