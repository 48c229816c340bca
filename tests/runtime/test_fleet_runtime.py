"""Integration: the workforce fleet driven through the concurrency
runtime — determinism, coalescing savings, and error surfacing."""

import pytest

from repro.apps.workforce.fleet import (
    build_fleet,
    launch_fleet,
    launch_fleet_on_runtime,
)
from repro.errors import ProxyTransientError
from repro.runtime.admission.controller import STORM_THRESHOLD

pytestmark = pytest.mark.concurrency

RUN_MS = 150_000.0


def run_runtime_fleet(*, agents=3, shards=2, seed=0):
    fleet = build_fleet(
        agents, observability=True, runtime=True, shards=shards, runtime_seed=seed
    )
    launch_fleet_on_runtime(fleet, reports=3, period_ms=20_000.0)
    fleet.run_for(RUN_MS)
    return fleet


class TestFleetOnRuntime:
    def test_requires_runtime_flag(self):
        fleet = build_fleet(2)
        with pytest.raises(ValueError):
            launch_fleet_on_runtime(fleet)

    def test_all_workloads_complete(self):
        fleet = run_runtime_fleet()
        assert all(agent.task.state == "done" for agent in fleet.agents)

    def test_reports_reach_the_server(self):
        fleet = run_runtime_fleet()
        for agent in fleet.agents:
            track = fleet.server.track_of(agent.profile.agent_id)
            assert track is not None and track.report_count == 3

    def test_status_gets_coalesce(self):
        fleet = run_runtime_fleet()
        dispatcher = fleet.runtime.dispatcher("android")
        # 3 agents × 3 polls submitted; coalescing saved round trips
        assert dispatcher.coalesced_count > 0
        assert fleet.server.status_requests + dispatcher.coalesced_count == 9

    def test_proximity_behaviour_unchanged(self):
        # the runtime runs *alongside* the proximity machinery: agents
        # still arrive and notify the supervisor exactly as before
        fleet = run_runtime_fleet()
        texts = [m.text for m in fleet.supervisor.inbox]
        assert texts.count("Arrived at site") == len(fleet.agents)


class TestByteIdenticalTraces:
    def _trace_of(self, fleet):
        # every agent handset's full span export, concatenated in fleet
        # order: the whole deployment's observable history
        return "".join(agent.device.obs.export_jsonl() for agent in fleet.agents)

    def test_same_seed_byte_identical_exports(self):
        first = run_runtime_fleet(seed=11)
        second = run_runtime_fleet(seed=11)
        export_a, export_b = self._trace_of(first), self._trace_of(second)
        assert export_a  # non-trivial: queue + dispatch spans recorded
        assert export_a == export_b

    def test_queue_spans_present_in_agent_traces(self):
        fleet = run_runtime_fleet()
        names = {
            span.name
            for agent in fleet.agents
            for span in agent.device.obs.tracer.finished_spans()
        }
        assert any(name.startswith("queue:") for name in names)
        assert any(name.startswith("dispatch:") for name in names)


class TestErrorSurfacing:
    def test_clean_run_has_no_alerts(self):
        fleet = run_runtime_fleet()
        assert fleet.alerts == []

    def test_swallowed_failure_events_become_alerts(self):
        fleet = build_fleet(2)
        launch_fleet(fleet)
        fleet.run_for(50_000.0)
        # the app's pattern: business logic records the failure locally
        # and carries on — previously nobody downstream ever saw it.
        fleet.agent("agent-1").logic.activity_events.append("report-failed")
        fleet.run_for(1_000.0)
        assert "[fleet-alert] agent-1: report-failed" in fleet.supervisor_inbox

    def test_alerts_not_duplicated_across_runs(self):
        fleet = build_fleet(2)
        launch_fleet(fleet)
        fleet.agent("agent-1").logic.activity_events.append("sms-failed")
        fleet.run_for(1_000.0)
        fleet.run_for(1_000.0)
        alerts = [a for a in fleet.alerts if "sms-failed" in a]
        assert len(alerts) == 1

    def test_failed_runtime_task_becomes_alert(self):
        fleet = build_fleet(2, runtime=True)
        launch_fleet(fleet)

        def doomed():
            yield 10.0
            raise ProxyTransientError("shard exploded")

        fleet.runtime.spawn("doomed", doomed())
        fleet.run_for(1_000.0)
        matching = [a for a in fleet.alerts if "doomed" in a]
        assert matching == [
            "[fleet-alert] task doomed failed: "
            "ProxyTransientError: shard exploded"
        ]

    def test_inbox_keeps_sms_order_then_alerts(self):
        fleet = run_runtime_fleet()
        fleet.agent("agent-1").logic.activity_events.append("log-failed")
        fleet.run_for(1_000.0)
        inbox = fleet.supervisor_inbox
        # real texts first, surfaced alerts appended after
        assert inbox[-1] == "[fleet-alert] agent-1: log-failed"
        assert "Arrived at site" in inbox[0]


class TestAdmissionStorms:
    def test_admission_requires_runtime(self):
        from repro.runtime import AdmissionConfig

        with pytest.raises(ValueError):
            build_fleet(2, admission=AdmissionConfig())

    def _stormy_fleet(self):
        from repro.runtime import AdmissionConfig

        return build_fleet(
            2,
            runtime=True,
            shards=1,
            queue_depth=1,
            admission=AdmissionConfig(
                bucket=None,
                overflow_capacity=0,
                autoscaler=None,
            ),
        )

    def test_storm_surfaces_as_fleet_alert(self):
        fleet = self._stormy_fleet()
        launch_fleet(fleet)
        dispatcher = fleet.runtime.dispatcher("android")
        for _ in range(STORM_THRESHOLD + 6):
            dispatcher.submit("burst", lambda: None)
        fleet.run_for(1_000.0)
        storms = [a for a in fleet.alerts if "admission storm" in a]
        assert len(storms) == 1
        assert storms[0].startswith("[fleet-alert] admission storm on android:")
        assert "kind=shed" in storms[0]

    def test_storm_alert_not_duplicated_across_runs(self):
        fleet = self._stormy_fleet()
        launch_fleet(fleet)
        dispatcher = fleet.runtime.dispatcher("android")
        for _ in range(STORM_THRESHOLD + 6):
            dispatcher.submit("burst", lambda: None)
        fleet.run_for(1_000.0)
        fleet.run_for(1_000.0)
        storms = [a for a in fleet.alerts if "admission storm" in a]
        assert len(storms) == 1

    def test_agent_submissions_charged_per_tenant(self):
        from repro.runtime import AdmissionConfig, TokenBucketConfig

        fleet = build_fleet(
            2,
            runtime=True,
            admission=AdmissionConfig(
                bucket=TokenBucketConfig(rate_per_s=1_000.0, capacity=1_000.0),
                overflow_capacity=0,
                autoscaler=None,
            ),
        )
        launch_fleet_on_runtime(fleet, reports=2, period_ms=20_000.0)
        fleet.run_for(RUN_MS)
        controller = fleet.runtime.dispatcher("android").admission
        assert set(controller.buckets()) >= {"agent-1", "agent-2"}


class TestControlDecisionsPinned:
    """The autoscaler's decisions on one seeded fleet, pinned.

    The repository benchmark's ``fleet_runtime`` digest covers report
    counts, outcomes and ``now_ms`` only, so a change to the control
    path that moves a resize or an evaluation would not show there.
    This fleet has that workload's admission shape (per-agent buckets of
    10 tokens/s, overflow 64, 2–8 shards, queue depth 128) and resizes
    in both directions; every value below was recorded before the
    control path was made single-pass."""

    #: (t_ms, from, to, direction, mean_depth, utilization) per resize.
    RESIZES = [
        (3623.5, 2, 3, "up", 14.5, 1.0),
        (4643.2, 3, 4, "up", 4.0, 1.0),
        (5643.2, 4, 3, "down", 0.0, 0.0),
        (7790.5, 3, 2, "down", 0.333333, 0.333333),
        (9214.4, 2, 3, "up", 5.0, 1.0),
        (11114.5, 3, 2, "down", 0.333333, 0.333333),
        (13130.0, 2, 3, "up", 4.0, 1.0),
        (15592.0, 3, 2, "down", 0.333333, 0.333333),
        (16661.0, 2, 3, "up", 4.0, 1.0),
        (17785.0, 3, 2, "down", 0.333333, 0.333333),
    ]

    def test_fleet_resizes_and_evaluations(self):
        from unittest import mock

        from repro.runtime import (
            AdmissionConfig,
            AutoscalerConfig,
            ShardAutoscaler,
            TokenBucketConfig,
        )

        evaluations = []
        evaluate = ShardAutoscaler.evaluate

        def counted(scaler, now_ms):
            evaluations.append(now_ms)
            return evaluate(scaler, now_ms)

        with mock.patch.object(ShardAutoscaler, "evaluate", counted):
            fleet = build_fleet(
                30,
                runtime=True,
                queue_depth=128,
                runtime_seed=1,
                admission=AdmissionConfig(
                    bucket=TokenBucketConfig(rate_per_s=10.0, capacity=10.0),
                    overflow_capacity=64,
                    autoscaler=AutoscalerConfig(min_shards=2, max_shards=8),
                ),
            )
            launch_fleet_on_runtime(fleet, reports=6, period_ms=2_000.0)
            fleet.runtime.drain()
        runtime = fleet.runtime
        scaler = runtime.autoscalers()["android"]
        assert [tuple(r.values()) for r in scaler.resizes] == self.RESIZES
        assert len(evaluations) == 1121
        assert runtime.dispatcher("android").outcome_counts() == {
            "admitted": 304,
            "coalesced": 138,
            "throttled": 0,
            "absorbed": 0,
            "shed": 0,
        }
        assert runtime.scheduler.clock.now_ms == 18085.0
        wait = runtime.observability.metrics.histogram(
            "runtime.queue_wait_ms", source="android"
        )
        assert wait.bucket_counts == [53, 0, 0, 0, 12, 22, 16, 97, 74, 20, 10, 0, 0, 0]
        assert wait.overflow == 0
        assert all(agent.task.state == "done" for agent in fleet.agents)
