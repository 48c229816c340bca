"""Flight-recorder integration across the runtime: scheduler crash
isolation, dispatcher shed bursts, breaker opens, SLO breaches, and the
fleet's ``[fleet-alert]`` surfacing."""

import pytest

from repro.apps.workforce.fleet import build_fleet
from repro.core.proxies import standard_registry
from repro.core.resilience import (
    BreakerConfig,
    ResiliencePolicy,
    ResilienceRuntime,
)
from repro.errors import ProxyTransientError
from repro.obs import Observability
from repro.obs.analyze.slo import SloEngine, SloSpec
from repro.runtime import ConcurrencyRuntime
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency


def make_runtime(**kwargs):
    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    sampler = hub.install_sampler()
    sampler.track("runtime.queue_depth")
    sampler.track("runtime.inflight")
    flight = hub.install_flight_recorder()
    runtime = ConcurrencyRuntime(scheduler, observability=hub, **kwargs)
    return scheduler, hub, flight, runtime


class TestTaskCrashDump:
    def crash_run(self):
        scheduler, hub, flight, runtime = make_runtime(shards=2)
        dispatcher = runtime.dispatcher("crash")

        def doomed():
            yield dispatcher.submit(
                "work",
                lambda: scheduler.clock.advance(5.0),
                tracer=hub.tracer,
            )
            raise RuntimeError("meltdown")

        runtime.spawn("doomed", doomed())
        runtime.drain()
        return flight

    def test_crash_triggers_dump_with_final_spans(self):
        flight = self.crash_run()
        assert flight.triggered == 1
        dump = flight.last_dump
        assert dump["reason"] == "task.crashed"
        assert dump["attributes"]["task"] == "doomed"
        assert dump["attributes"]["error"] == "meltdown"
        # The crashing task's final lane span is in the buffered history.
        assert any(span["name"] == "queue:work" for span in dump["spans"])
        assert any(
            event["name"] == "task.crashed" for event in dump["events"]
        )
        # Sampler points captured en route are in the dump too.
        assert any(
            sample["metric"] == "runtime.inflight" for sample in dump["samples"]
        )

    def test_same_seed_dumps_are_byte_identical(self):
        assert self.crash_run().to_json() == self.crash_run().to_json()


class TestShedDump:
    def test_shed_burst_collapses_to_one_dump(self):
        scheduler, hub, flight, runtime = make_runtime(shards=1, queue_depth=2)
        dispatcher = runtime.dispatcher("p")
        for _ in range(8):
            dispatcher.submit(
                "work",
                lambda: scheduler.clock.advance(1.0),
                tracer=hub.tracer,
            )
        runtime.drain()
        assert dispatcher.shed_count == 6
        assert flight.triggered == 1  # cooldown swallowed the burst
        dump = flight.last_dump
        assert dump["reason"] == "queue.shed"
        assert dump["suppressed"] == 5


class TestBreakerDump:
    def test_breaker_open_triggers_dump(self):
        scheduler = Scheduler(SimulatedClock())
        hub = Observability()
        flight = hub.install_flight_recorder()
        runtime = ResilienceRuntime(
            ResiliencePolicy(
                breaker=BreakerConfig(
                    failure_threshold=2,
                    reset_timeout_ms=1_000.0,
                    half_open_successes=1,
                )
            ),
            scheduler,
            observability=hub,
        )
        binding = standard_registry().binding("Http", "android")

        def fail():
            raise ProxyTransientError("down")

        for _ in range(2):
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", fail)
        assert flight.triggered == 1
        dump = flight.last_dump
        assert dump["reason"] == "breaker.open"
        assert dump["attributes"]["operation"] == "get"


class TestSloBreachDump:
    def test_newly_breached_slo_triggers_dump(self):
        hub = Observability()
        flight = hub.install_flight_recorder()
        engine = SloEngine(
            [SloSpec(operation="get", latency_threshold_ms=10.0)],
            flight=flight,
        )
        engine.observe("get", 50.0, ok=True, platform="android", t_ms=100.0)
        engine.evaluate(100.0)
        assert flight.triggered == 1
        assert flight.last_dump["reason"] == "slo.breach"
        assert flight.last_dump["attributes"]["slo"] == "get@*"
        # Still breached on re-evaluation: no second dump.
        engine.evaluate(200.0)
        assert flight.triggered == 1


class TestFleetFlight:
    def test_requires_runtime(self):
        with pytest.raises(ValueError):
            build_fleet(1, flight_recorder=True)

    def crashed_fleet(self):
        fleet = build_fleet(
            1, observability=True, runtime=True, flight_recorder=True
        )

        def doomed():
            yield 10.0
            raise RuntimeError("field failure")

        fleet.runtime.spawn("doomed", doomed())
        fleet.run_for(20.0)
        return fleet

    def test_dump_surfaces_as_fleet_alert(self):
        fleet = self.crashed_fleet()
        assert fleet.flight is not None
        assert fleet.flight.triggered == 1
        alerts = [
            line
            for line in fleet.supervisor_inbox
            if line.startswith("[fleet-alert] flight dump")
        ]
        assert len(alerts) == 1
        assert "task.crashed" in alerts[0]
        # Alerts do not repeat on later advances.
        fleet.run_for(10.0)
        assert (
            sum(
                1
                for line in fleet.supervisor_inbox
                if line.startswith("[fleet-alert] flight dump")
            )
            == 1
        )

    def test_fleet_dumps_byte_identical_across_builds(self):
        first = self.crashed_fleet().flight.to_json()
        second = self.crashed_fleet().flight.to_json()
        assert first == second
