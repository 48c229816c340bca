"""Unit tests for the sharded dispatcher: lanes, shedding, coalescing,
queue spans."""

import pytest

from repro.errors import ConfigurationError, ProxyOverloadError, ProxyTransientError
from repro.obs import Observability
from repro.runtime import ConcurrencyRuntime, Dispatcher
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency


@pytest.fixture
def world():
    return Scheduler(SimulatedClock())


def make_runtime(world, **kwargs):
    kwargs.setdefault("observability", Observability())
    return ConcurrencyRuntime(world, **kwargs)


def charge(world, ms):
    """A thunk modelling a substrate call that charges ``ms`` virtual."""
    return lambda: world.clock.advance(ms)


class TestConstruction:
    def test_rejects_bad_shards(self, world):
        with pytest.raises(ConfigurationError):
            Dispatcher(world, shards=0)

    def test_rejects_bad_queue_depth(self, world):
        with pytest.raises(ConfigurationError):
            Dispatcher(world, queue_depth=0)


class TestLaneParallelism:
    def test_single_shard_serialises(self, world):
        runtime = make_runtime(world, shards=1, queue_depth=16)
        d = runtime.dispatcher("p")
        for _ in range(8):
            d.submit("work", charge(world, 100.0))
        runtime.drain()
        assert world.clock.now_ms == pytest.approx(800.0)

    def test_shards_overlap_in_virtual_time(self, world):
        runtime = make_runtime(world, shards=4, queue_depth=16)
        d = runtime.dispatcher("p")
        futures = [d.submit("work", charge(world, 100.0)) for _ in range(8)]
        runtime.drain()
        # 8 × 100ms over 4 lanes: makespan is 200ms, not 800ms.
        assert world.clock.now_ms == pytest.approx(200.0)
        assert all(f.done() and f.error is None for f in futures)
        assert d.executed_per_shard() == [2, 2, 2, 2]

    def test_key_pins_to_one_shard(self, world):
        runtime = make_runtime(world, shards=4, queue_depth=16)
        d = runtime.dispatcher("p")
        for _ in range(6):
            d.submit("work", charge(world, 10.0), key="agent-1")
        runtime.drain()
        per_shard = d.executed_per_shard()
        assert sorted(per_shard, reverse=True)[0] == 6  # all on one lane
        assert sum(per_shard) == 6

    def test_keyed_requests_complete_in_submission_order(self, world):
        runtime = make_runtime(world, shards=4, queue_depth=16)
        d = runtime.dispatcher("p")
        done = []
        for index in range(4):
            future = d.submit("work", charge(world, 10.0), key="agent-1")
            future.add_done_callback(lambda f, i=index: done.append(i))
        runtime.drain()
        assert done == [0, 1, 2, 3]


class TestAdmissionControl:
    def test_overflow_sheds_with_uniform_error(self, world):
        runtime = make_runtime(world, shards=1, queue_depth=4)
        d = runtime.dispatcher("p")
        futures = [d.submit("burst", charge(world, 10.0)) for _ in range(10)]
        shed = [f for f in futures if f.done() and isinstance(f.error, ProxyOverloadError)]
        # all 10 arrive at the same instant: 4 queue slots fill, 6 shed
        # at the door (execution starts when the scheduler next runs)
        assert len(shed) == 6
        assert d.shed_count == 6
        assert all(f.error.error_code == 1012 for f in shed)
        runtime.drain()
        assert d.completed_count == 4

    def test_shed_records_span_event(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=1, queue_depth=1, observability=hub)
        d = runtime.dispatcher("p")
        for _ in range(4):
            d.submit("burst", charge(world, 10.0), tracer=hub.tracer)
        shed_spans = [
            span
            for span in hub.tracer.finished_spans()
            if span.attributes.get("outcome") == "shed"
        ]
        assert len(shed_spans) == 3
        for span in shed_spans:
            assert span.status == "error"
            assert [event.name for event in span.events] == ["queue.shed"]
        runtime.drain()

    def test_shed_metric_labelled_by_platform(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=1, queue_depth=1, observability=hub)
        d = runtime.dispatcher("android")
        for _ in range(4):
            d.submit("burst", charge(world, 10.0))
        assert hub.metrics.counter("runtime.shed", source="android").value == 3
        runtime.drain()


class TestCoalescing:
    def test_inflight_reads_share_one_execution(self, world):
        runtime = make_runtime(world, shards=2, queue_depth=16)
        d = runtime.dispatcher("p")
        executions = []

        def read():
            executions.append(world.clock.now_ms)
            world.clock.advance(50.0)
            return "body"

        futures = [
            d.submit("get", read, coalesce_key="GET:/status") for _ in range(5)
        ]
        runtime.drain()
        assert len(executions) == 1
        assert d.coalesced_count == 4
        assert [f.result() for f in futures] == ["body"] * 5

    def test_coalescing_window_closes_at_settle(self, world):
        runtime = make_runtime(world, shards=1, queue_depth=16)
        d = runtime.dispatcher("p")
        executions = []

        def read():
            executions.append(world.clock.now_ms)
            world.clock.advance(50.0)
            return len(executions)

        first = d.submit("get", read, coalesce_key="k")
        runtime.drain()
        second = d.submit("get", read, coalesce_key="k")
        runtime.drain()
        # after the first settles, a later GET is a fresh execution
        assert len(executions) == 2
        assert first.result() == 1 and second.result() == 2

    def test_failure_propagates_to_all_attached(self, world):
        runtime = make_runtime(world, shards=1, queue_depth=16)
        d = runtime.dispatcher("p")

        def read():
            world.clock.advance(10.0)
            raise ProxyTransientError("flaky read")

        futures = [d.submit("get", read, coalesce_key="k") for _ in range(3)]
        runtime.drain()
        assert all(isinstance(f.error, ProxyTransientError) for f in futures)

    def test_different_keys_do_not_coalesce(self, world):
        runtime = make_runtime(world, shards=2, queue_depth=16)
        d = runtime.dispatcher("p")
        executions = []

        def read():
            executions.append(None)
            world.clock.advance(10.0)

        d.submit("get", read, coalesce_key="a")
        d.submit("get", read, coalesce_key="b")
        runtime.drain()
        assert len(executions) == 2
        assert d.coalesced_count == 0


class TestQueueSpans:
    def test_executed_request_records_queue_span(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=1, queue_depth=16, observability=hub)
        d = runtime.dispatcher("android")
        d.submit("getLocation", charge(world, 25.0), tracer=hub.tracer)
        d.submit("getLocation", charge(world, 25.0), tracer=hub.tracer)
        runtime.drain()
        spans = [
            s for s in hub.tracer.finished_spans() if s.name == "queue:getLocation"
        ]
        assert len(spans) == 2
        first, second = sorted(spans, key=lambda s: s.start_virtual_ms)
        assert first.attributes["wait_ms"] == pytest.approx(0.0)
        # the second waited for the first's full service interval
        assert second.attributes["wait_ms"] == pytest.approx(25.0)
        assert first.attributes["platform"] == "android"
        assert first.duration_virtual_ms == pytest.approx(25.0)

    def test_lane_spans_overlap_across_shards(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=2, queue_depth=16, observability=hub)
        d = runtime.dispatcher("p")
        d.submit("work", charge(world, 100.0), tracer=hub.tracer)
        d.submit("work", charge(world, 100.0), tracer=hub.tracer)
        runtime.drain()
        spans = [s for s in hub.tracer.finished_spans() if s.name == "queue:work"]
        starts = sorted(s.start_virtual_ms for s in spans)
        assert starts == [0.0, 0.0]  # genuinely parallel in virtual time


class TestLaneExecution:
    def test_proxy_error_settles_after_the_charged_interval(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=1, observability=hub)

        def failing():
            world.clock.advance(40.0)
            raise ProxyTransientError("flaky")

        future = runtime.submit("p", "work", failing, tracer=hub.tracer)
        world.run_for(0.0)
        assert world.clock.now_ms == 0.0  # the lane rewound the clock
        assert not future.done()
        runtime.drain()
        assert world.clock.now_ms == 40.0
        assert isinstance(future.error, ProxyTransientError)
        (span,) = hub.tracer.finished_spans()
        assert span.duration_virtual_ms == 40.0
        assert span.status == "error"

    def test_other_errors_propagate_after_the_rewind(self, world):
        hub = Observability()
        runtime = make_runtime(world, shards=1, observability=hub)

        def broken():
            world.clock.advance(25.0)
            raise KeyError("not a proxy error")

        runtime.submit("p", "work", broken, tracer=hub.tracer)
        with pytest.raises(KeyError):
            world.run_for(0.0)
        assert world.clock.now_ms == 0.0
        # The queue span closed inside the charged interval.
        (span,) = hub.tracer.finished_spans()
        assert span.end_virtual_ms == 25.0
        assert span.status == "error"


class TestDeterminism:
    def test_identical_runs_identical_shard_layout(self):
        def run():
            world = Scheduler(SimulatedClock())
            runtime = make_runtime(world, shards=4, queue_depth=64, seed=3)
            d = runtime.dispatcher("p")
            for index in range(20):
                d.submit(
                    "work",
                    charge(world, 10.0 + index),
                    key=f"agent-{index % 5}",
                )
            runtime.drain()
            return d.executed_per_shard(), world.clock.now_ms

        assert run() == run()


class TestDrain:
    def test_drain_waits_for_settle_overtaken_by_a_clock_charge(self, world):
        # A scheduler callback charges the shared clock past the lane's
        # horizon before the request's settle callback has run.
        runtime = make_runtime(world, shards=1)
        future = runtime.submit("p", "work", charge(world, 50.0))

        def agent():
            yield future

        task = runtime.spawn("agent", agent())
        world.call_at(10.0, charge(world, 100.0))
        runtime.drain()
        assert future.done()
        assert task.state == "done"
        assert world.next_deadline_ms() is None
