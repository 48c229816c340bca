"""Sampling under chaos: 1% head rate, injected faults, zero tail misses.

The production-scale posture — streaming pipeline, 1% head sampling —
must stay safe when the workload goes bad: every trace carrying an
error, shed, throttle, breaker-open or slow-outlier signal is retained
by the tail rules no matter what the head hash said, and the health
gate tells captured anomalies (pass) apart from telemetry integrity
failures like cardinality overflow (fail).
"""

import json

import pytest

from repro.apps.workforce.fleet import (
    build_fleet,
    launch_fleet,
    launch_fleet_on_runtime,
)
from repro.core.resilience import chaos_policy
from repro.distrib import DistribConfig
from repro.faults import FaultPlan, FaultRule
from repro.obs import Observability
from repro.obs.pipeline import HealthReport, PipelineConfig
from tests.chaos.drivers import DRIVERS, PLATFORMS, transient_plan

pytestmark = [pytest.mark.chaos, pytest.mark.obs, pytest.mark.pipeline]

ONE_PERCENT = PipelineConfig(default_rate=0.01, seed=13, streaming=True)


@pytest.mark.parametrize("platform", PLATFORMS)
class TestOnePercentSamplingUnderChaos:
    def test_zero_tail_misses(self, platform):
        hub = Observability()
        hub.install_pipeline(ONE_PERCENT)
        DRIVERS[platform](transient_plan(0.35, seed=7), seed=7, observability=hub)
        accounting = hub.pipeline.accounting()
        assert accounting["anomalous_traces"] > 0  # the plan actually bit
        assert accounting["tail_misses"] == 0
        assert accounting["anomalous_kept"] == accounting["anomalous_traces"]
        # Streaming: the tracer retains nothing; the ring is the storage.
        assert hub.tracer.spans == []
        # Every anomalous trace is genuinely in the export, not just
        # counted: each exported root either tripped a rule or was a
        # head keep, and all error roots are present.
        kept = [
            json.loads(line)
            for line in hub.pipeline.export_jsonl().splitlines()
        ]
        assert any(record["status"] == "error" for record in kept)

    def test_captured_anomalies_pass_the_gate(self, platform):
        hub = Observability()
        hub.install_pipeline(ONE_PERCENT)
        DRIVERS[platform](transient_plan(0.35, seed=7), seed=7, observability=hub)
        report = HealthReport.build(hub.pipeline)
        assert report.healthy, report.failures
        assert report.telemetry["accounting"]["anomalous_traces"] > 0


class TestFleetHealthGate:
    def _run_fleet(self, config):
        fleet = build_fleet(2, observability=True, pipeline=config)
        launch_fleet(fleet)
        fleet.run_for(120_000.0)
        for agent in fleet.agents:
            agent.logic.report_location()
        return fleet

    def test_healthy_fleet_passes(self):
        fleet = self._run_fleet(ONE_PERCENT)
        report = fleet.health_report()
        assert report.healthy, report.failures
        accounting = fleet.pipeline.accounting()
        assert accounting["traces_total"] > 0
        assert accounting["tail_misses"] == 0

    def test_injected_cardinality_overflow_fails(self):
        starved = PipelineConfig(
            default_rate=0.01, seed=13, streaming=True, max_series=1
        )
        fleet = self._run_fleet(starved)
        assert fleet.pipeline.cardinality_overflow > 0
        report = fleet.health_report()
        assert not report.healthy
        assert any("cardinality" in failure for failure in report.failures)

    def test_rollups_do_not_grow_with_the_agent_count(self):
        """Thirty agents of the benchmark's distributed-fleet shape: each
        agent is a tenant, and the RED rollups must not give every agent
        series of its own."""
        fleet = build_fleet(
            30,
            runtime=True,
            observability=True,
            queue_depth=128,
            runtime_seed=1_000,
            distrib=DistribConfig(
                regions=("ap-south", "eu-west", "us-east"), seed=1_000
            ),
            fault_plan=FaultPlan(
                seed=1_000,
                rules=(FaultRule("network.request", "ack_lost", 0.01),),
            ),
            pipeline=PipelineConfig(default_rate=0.01, streaming=True, seed=1_000),
        )
        launch_fleet_on_runtime(
            fleet,
            reports=6,
            period_ms=20_000.0,
            resilience=chaos_policy("Http", seed=fleet.runtime.seed),
        )
        fleet.runtime.drain()
        report = fleet.health_report()
        assert report.healthy, report.failures
        assert fleet.pipeline.rollups.collapsed_observations == 0
        ops = {series.op for series in fleet.pipeline.rollups.series()}
        assert {"post", "get"} <= ops
