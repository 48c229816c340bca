"""Span-tree determinism: traces are a pure function of (plan, seed).

The contract: two chaos runs from identical seeds and fault plans must
export **byte-identical** JSONL (virtual-time stamps, sequential ids,
no real-time fields), on every platform.  A windowed-blackout run must
additionally show the breaker's full open → half_open → closed cycle as
``breaker.transition`` span events.
"""

import json

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.faults import FaultPlan
from repro.obs import Observability
from tests.chaos.drivers import DRIVERS, PLATFORMS, WARMUP_MS, run_android, transient_plan

pytestmark = [pytest.mark.obs, pytest.mark.chaos]


def _traced_run(platform: str, plan, *, seed: int):
    hub = Observability()
    run = DRIVERS[platform](plan, seed=seed, observability=hub)
    return hub, run


def _events(payload: str):
    for line in payload.strip().splitlines():
        record = json.loads(line)
        for event in record["events"]:
            yield record, event


@pytest.mark.parametrize("platform", PLATFORMS)
class TestByteIdenticalExports:
    def test_same_seed_same_bytes(self, platform):
        exports = []
        for _ in range(2):
            hub, _run = _traced_run(
                platform, transient_plan(0.3, seed=9), seed=9
            )
            exports.append(hub.export_jsonl())
        assert exports[0] == exports[1]
        assert exports[0]  # a silent empty trace would pass trivially

    def test_trace_is_substantive(self, platform):
        hub, _run = _traced_run(platform, transient_plan(0.3, seed=9), seed=9)
        records = [json.loads(line) for line in hub.export_jsonl().splitlines()]
        names = {record["name"] for record in records}
        assert any(name.startswith("dispatch:") for name in names)
        assert any(name.startswith("resilience:") for name in names)
        assert any(name.startswith("binding:") for name in names)
        # At a 30% fault rate the retry loop must have fired somewhere.
        event_names = {event["name"] for _, event in _events(hub.export_jsonl())}
        assert "fault.injected" in event_names or "retry" in event_names

    def test_no_real_time_leaks_into_export(self, platform):
        hub, _run = _traced_run(platform, transient_plan(0.3, seed=9), seed=9)
        assert "real_ms" not in hub.export_jsonl()


class TestBreakerLifecycleAsSpanEvents:
    """A bounded blackout drives breakers open, half-open, then closed —
    and every transition must surface as a ``breaker.transition`` event."""

    @pytest.fixture(scope="class")
    def blackout_hub(self):
        hub = Observability()
        run_android(
            FaultPlan.network_blackout(WARMUP_MS, 150_000.0, seed=4),
            seed=4,
            observability=hub,
        )
        return hub

    def test_full_breaker_cycle_is_traced(self, blackout_hub):
        states = {
            event["attributes"]["to_state"]
            for _, event in _events(blackout_hub.export_jsonl())
            if event["name"] == "breaker.transition"
        }
        assert {"open", "half_open", "closed"} <= states

    def test_transitions_match_the_breaker_history(self, blackout_hub):
        """Span events and the registry-backed breaker report agree."""
        traced = [
            (event["attributes"]["from_state"], event["attributes"]["to_state"])
            for _, event in _events(blackout_hub.export_jsonl())
            if event["name"] == "breaker.transition"
        ]
        counted = blackout_hub.metrics.total("resilience.breaker_transitions")
        assert len(traced) == counted > 0

    def test_blackout_export_is_deterministic(self):
        exports = []
        for _ in range(2):
            hub = Observability()
            run_android(
                FaultPlan.network_blackout(WARMUP_MS, 150_000.0, seed=4),
                seed=4,
                observability=hub,
            )
            exports.append(hub.export_jsonl())
        assert exports[0] == exports[1]


class TestTracingDoesNotPerturbTheRun:
    """Enabling tracing must not change simulation behaviour: the chaos
    fingerprint (fault schedule, counters, app events) is identical with
    the hub on and off."""

    @pytest.mark.parametrize("platform", PLATFORMS)
    def test_fingerprint_unchanged(self, platform):
        plain = DRIVERS[platform](transient_plan(0.3, seed=9), seed=9)
        hub = Observability()
        traced = DRIVERS[platform](
            transient_plan(0.3, seed=9), seed=9, observability=hub
        )
        assert plain.summary() == traced.summary()
        assert plain.logic.activity_events == traced.logic.activity_events


class TestSpanTreeShape:
    """One fault-free getLocation yields the acceptance span tree."""

    def test_dispatch_resilience_binding_substrate(self):
        hub = Observability()
        sc = scenario.build_android(observability=hub)
        sc.platform.run_for(5_000.0)  # let the GPS produce a first fix
        proxy = create_proxy("Location", sc.platform)
        proxy.set_property("context", sc.new_context())
        proxy.set_property("provider", "gps")
        hub.tracer.reset()  # ignore setup-era spans

        proxy.get_location()

        roots = [s for s in hub.tracer.roots() if s.name == "dispatch:getLocation"]
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["interface"] == "Location"
        assert root.attributes["platform"] == "android"

        def names_below(span):
            out = []
            for child in hub.tracer.children_of(span):
                out.append(child.name)
                out.extend(names_below(child))
            return out

        lineage = names_below(root)
        assert lineage[0] == "resilience:getLocation"
        assert "binding:getLocation" in lineage
        assert any(name.startswith("substrate:") for name in lineage)
        # The whole tree is virtual-time stamped and finished.
        for span in [root] + [s for s in hub.tracer.spans if s.trace_id == root.trace_id]:
            assert span.finished
