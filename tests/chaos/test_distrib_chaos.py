"""Chaos across regions: partitions + retry storms against the tier.

The tentpole's acceptance scenario: the proxied workforce fleet runs
its reporting workload while ``ack_lost`` faults force the resilience
layer to replay POSTs the server already applied AND a region pair is
partitioned mid-run.  Afterwards:

* every replica of the ``reports`` table converges once the partition
  heals and anti-entropy quiesces;
* every report was applied **exactly once** — the dedup counter is
  strictly positive (replays really happened) and the server-side
  report count equals the logical report count (they were absorbed);
* a crashed orchestrator's in-doubt sagas compensate on recovery;
* the whole composition is byte-identical under fixed seeds.
"""

import pytest

from repro.apps.workforce.fleet import build_fleet, launch_fleet_on_runtime
from repro.core.resilience import chaos_policy
from repro.distrib import DistribConfig, DistribRuntime, SagaStep
from repro.errors import ProxyReplicaUnavailableError
from repro.faults import FaultPlan
from repro.faults.plan import FaultRule
from repro.obs import Observability
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = [pytest.mark.chaos, pytest.mark.distrib]

AGENTS = 3
REPORTS = 3
REGIONS = ("ap-south", "eu-west")


def run_storm(
    *,
    seed=3,
    fault_seed=7,
    rate=0.4,
    partition_window=None,
):
    """The fleet under an ``ack_lost`` storm; returns the evidence."""
    plan = FaultPlan(
        seed=fault_seed,
        rules=(FaultRule("network.request", "ack_lost", rate),),
    )
    fleet = build_fleet(
        AGENTS,
        runtime=True,
        observability=True,
        distrib=DistribConfig(regions=REGIONS, seed=seed),
        fault_plan=plan,
    )
    tier = fleet.runtime.distrib
    if partition_window is not None:
        start_ms, end_ms = partition_window
        tier.partition_window("ap-south", "eu-west", start_ms, end_ms)
    launch_fleet_on_runtime(
        fleet, reports=REPORTS, resilience=chaos_policy("Http")
    )
    fleet.runtime.drain()
    tier.heal_all()
    rounds = tier.run_until_converged()
    return fleet, tier, rounds


class TestExactlyOnceUnderStorm:
    def _evidence(self, fleet):
        metrics = fleet.runtime.observability.metrics
        report_counts = {
            agent.profile.agent_id: fleet.server.track_of(
                agent.profile.agent_id
            ).report_count
            for agent in fleet.agents
        }
        return metrics, report_counts

    def test_replays_happen_and_are_all_absorbed(self):
        fleet, tier, rounds = run_storm()
        metrics, report_counts = self._evidence(fleet)
        # The storm really forced replays...
        assert metrics.total("distrib.dedup_hits") > 0
        # ...and the substrate side-effect count equals the logical
        # write count: no POST applied twice, none lost.
        assert report_counts == {
            agent.profile.agent_id: REPORTS for agent in fleet.agents
        }
        assert rounds >= 0
        assert tier.table("reports").converged

    def test_partition_during_storm_still_converges(self):
        fleet, tier, rounds = run_storm(partition_window=(10_000.0, 60_000.0))
        metrics, report_counts = self._evidence(fleet)
        assert metrics.total("distrib.dedup_hits") > 0
        assert report_counts == {
            agent.profile.agent_id: REPORTS for agent in fleet.agents
        }
        # The cut really happened, and gossip repaired it after the heal.
        assert metrics.total("distrib.partitions") == 1
        assert tier.table("reports").converged
        hashes = set(tier.table("reports").content_hashes().values())
        assert len(hashes) == 1

    def test_every_agent_report_reaches_every_region(self):
        fleet, tier, _ = run_storm(partition_window=(10_000.0, 60_000.0))
        reports = tier.table("reports")
        for agent in fleet.agents:
            for region in REGIONS:
                fix = reports.get(agent.profile.agent_id, region=region)
                assert fix is not None
                assert {"latitude", "longitude", "timestamp_ms"} <= set(fix)

    def test_storm_is_deterministic(self):
        def export():
            fleet, tier, _ = run_storm(
                partition_window=(10_000.0, 60_000.0)
            )
            return tier.export_json(), fleet.runtime.observability.export_jsonl()

        assert export() == export()

    def test_storm_is_causally_clean(self):
        """The happens-before audit over the full chaos scenario —
        ack_lost replays plus a mid-run partition — finds nothing:
        replays dedup, LWW follows causality, invalidations pop the
        slots they target."""
        from repro.obs import CausalReport, parse_jsonl

        fleet, tier, _ = run_storm(partition_window=(10_000.0, 60_000.0))
        assert tier.monitor.clean
        report = CausalReport.from_records(
            parse_jsonl(fleet.runtime.observability.export_jsonl())
        )
        assert report.violations == []
        assert report.acyclic
        # Surviving writes became visible in both regions (a write
        # superseded before its replication lands legitimately never
        # shows up remotely — LWW drops it).
        data = report.to_dict()
        assert 0 < data["convergence"]["converged"] <= data["writes"]


class TestSagaCrashRecovery:
    def test_killed_orchestrator_recovers_invariants(self):
        """Kill the orchestrator mid-saga (simulated crash) and assert
        recovery compensates the in-doubt executions — no reservation
        survives without its committed report."""
        scheduler = Scheduler(SimulatedClock())
        hub = Observability()
        tier = DistribRuntime(
            scheduler,
            DistribConfig(regions=REGIONS, write_quorum=2, seed=5),
            observability=hub,
        )
        reports = tier.table("reports")
        ledger = {}

        completed = tier.sagas.begin("report-ok")
        completed.step(
            "reserve",
            lambda: ledger.setdefault("ok", True),
            lambda _r: ledger.pop("ok", None),
        )
        completed.step("post", lambda: reports.put("ok", {"n": 1}))
        completed.complete()

        # Crash: this saga reserved, then the process died before commit.
        in_doubt = tier.sagas.begin("report-crashed")
        in_doubt.step(
            "reserve",
            lambda: ledger.setdefault("crashed", True),
            lambda _r: ledger.pop("crashed", None),
        )
        assert set(ledger) == {"ok", "crashed"}

        recovered = tier.sagas.recover()
        assert recovered == [in_doubt]
        assert in_doubt.status == "compensated"
        assert set(ledger) == {"ok"}  # only the committed reservation
        assert hub.metrics.total("distrib.sagas_recovered") == 1

    def test_quorum_loss_mid_saga_compensates(self):
        scheduler = Scheduler(SimulatedClock())
        tier = DistribRuntime(
            scheduler,
            DistribConfig(regions=REGIONS, write_quorum=2, seed=5),
        )
        reports = tier.table("reports")
        ledger = {}
        tier.partition("ap-south", "eu-west")
        with pytest.raises(ProxyReplicaUnavailableError):
            tier.sagas.run(
                "report",
                (
                    SagaStep(
                        "reserve",
                        lambda: ledger.setdefault("r", True),
                        lambda _r: ledger.pop("r", None),
                    ),
                    SagaStep("post", lambda: reports.put("r", {"n": 1})),
                ),
            )
        assert ledger == {}
        assert reports.get("r") is None
