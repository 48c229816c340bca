"""Observing a fleet changes nothing it does.

A seeded distributed fleet under lost acks and retries is built three
ways: observability off, tracers only, and tracers plus a 1% streaming
telemetry pipeline.  Tracing and sampling may only watch, so every
outcome the fleet produces must be identical across the three.
"""

import dataclasses

import pytest

from repro.apps.workforce.fleet import build_fleet, launch_fleet_on_runtime
from repro.core.resilience import chaos_policy
from repro.distrib import DistribConfig
from repro.faults import FaultPlan
from repro.faults.plan import FaultRule
from repro.obs import PipelineConfig

pytestmark = [pytest.mark.obs, pytest.mark.distrib]

AGENTS = 6
REPORTS = 10
REGIONS = ("ap-south", "eu-west", "us-east")
MODES = ("off", "tracers", "pipeline")


def _outcome(seed, mode):
    fleet = build_fleet(
        AGENTS,
        runtime=True,
        observability=mode != "off",
        runtime_seed=seed,
        distrib=DistribConfig(regions=REGIONS, seed=seed),
        fault_plan=FaultPlan(
            seed=seed, rules=(FaultRule("network.request", "ack_lost", 0.05),)
        ),
        pipeline=(
            PipelineConfig(default_rate=0.01, streaming=True, seed=seed)
            if mode == "pipeline"
            else None
        ),
    )
    launch_fleet_on_runtime(
        fleet,
        reports=REPORTS,
        period_ms=20_000.0,
        resilience=chaos_policy("Http", seed=seed),
    )
    fleet.runtime.drain()
    agent_ids = [agent.profile.agent_id for agent in fleet.agents]
    return {
        "tracks": {
            agent_id: dataclasses.asdict(fleet.server.track_of(agent_id))
            for agent_id in agent_ids
        },
        "server_log": fleet.server.activity_log(),
        "agent_logs": {
            agent.profile.agent_id: list(agent.logic.activity_events)
            for agent in fleet.agents
        },
        "outcomes": {
            platform: dispatcher.outcome_counts()
            for platform, dispatcher in fleet.runtime.dispatchers().items()
        },
        "now_ms": fleet.scheduler.clock.now_ms,
        "supervisor_inbox": fleet.supervisor_inbox,
        "tier": fleet.runtime.distrib.export_json(),
    }


@pytest.mark.parametrize("seed", [1, 7, 11])
def test_observing_changes_no_outcome(seed):
    off, tracers, pipeline = (_outcome(seed, mode) for mode in MODES)
    assert off["server_log"]  # the fleet did something worth comparing
    assert sum(track["report_count"] for track in off["tracks"].values()) > 0
    for key in off:
        assert tracers[key] == off[key], key
        assert pipeline[key] == off[key], key
