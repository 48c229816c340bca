"""Unit tests for the cooperative task scheduler."""

import pytest

from repro.errors import ProxyTransientError
from repro.runtime import CooperativeScheduler, Future
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency


@pytest.fixture
def world():
    return Scheduler(SimulatedClock())


@pytest.fixture
def coop(world):
    return CooperativeScheduler(world, seed=0)


class TestYieldProtocol:
    def test_sleep_yield_advances_on_virtual_clock(self, world, coop):
        trace = []

        def task():
            trace.append(world.clock.now_ms)
            yield 250.0
            trace.append(world.clock.now_ms)

        coop.spawn("sleeper", task())
        world.run_for(1_000.0)
        assert trace == [0.0, 250.0]
        assert coop.all_finished

    def test_none_yield_requeues_after_peers(self, world, coop):
        order = []

        def chatty(name):
            order.append(f"{name}.a")
            yield None
            order.append(f"{name}.b")

        coop.spawn("one", chatty("one"))
        coop.spawn("two", chatty("two"))
        world.run_for(1.0)
        # both take step a before either takes step b
        assert order == ["one.a", "two.a", "one.b", "two.b"]

    def test_future_yield_resumes_with_value(self, world, coop):
        future = Future()
        got = []

        def task():
            got.append((yield future))

        coop.spawn("waiter", task())
        world.run_for(1.0)
        assert got == []  # still parked
        future.resolve("payload")
        world.run_for(1.0)
        assert got == ["payload"]

    def test_failed_future_is_thrown_into_the_task(self, world, coop):
        future = Future()
        caught = []

        def task():
            try:
                yield future
            except ProxyTransientError as exc:
                caught.append(exc)

        coop.spawn("catcher", task())
        future.fail(ProxyTransientError("uniform"))
        world.run_for(1.0)
        assert len(caught) == 1
        assert coop.all_finished

    def test_bad_yield_fails_the_task(self, world, coop):
        def task():
            yield "nonsense"

        bad = coop.spawn("bad", task())
        world.run_for(1.0)
        assert bad.state == "failed"
        assert "expected None" in str(bad.error)

    def test_negative_sleep_fails_the_task(self, world, coop):
        def task():
            yield -5.0

        bad = coop.spawn("negative", task())
        world.run_for(1.0)
        assert bad.state == "failed"


class TestOrdering:
    def test_priority_beats_spawn_order(self, world, coop):
        order = []

        def step(name):
            order.append(name)
            yield 0.0
            order.append(name)

        coop.spawn("low", step("low"), priority=0)
        coop.spawn("high", step("high"), priority=5)
        world.run_for(1.0)
        assert order[:2] == ["high", "low"]

    def test_fifo_within_priority(self, world, coop):
        order = []

        def one_shot(name):
            order.append(name)
            return
            yield  # pragma: no cover - makes this a generator

        for name in ("a", "b", "c"):
            coop.spawn(name, one_shot(name))
        world.run_for(1.0)
        assert order == ["a", "b", "c"]


class TestIsolationAndResults:
    def test_task_exception_does_not_kill_peers(self, world, coop):
        def crasher():
            yield 10.0
            raise RuntimeError("agent bug")

        def survivor():
            yield 50.0
            return "fine"

        bad = coop.spawn("crasher", crasher())
        good = coop.spawn("survivor", survivor())
        world.run_for(100.0)
        assert bad.state == "failed" and isinstance(bad.error, RuntimeError)
        assert good.state == "done" and good.result == "fine"
        assert coop.failed_tasks() == [bad]

    def test_return_value_captured(self, world, coop):
        def task():
            yield 1.0
            return {"answer": 42}

        done = coop.spawn("returner", task())
        world.run_for(10.0)
        assert done.result == {"answer": 42}

    def test_metrics_count_lifecycle(self, world):
        from repro.obs import Observability

        hub = Observability()
        coop = CooperativeScheduler(world, seed=0, observability=hub)

        def ok():
            yield 1.0

        def bad():
            raise RuntimeError("x")
            yield  # pragma: no cover

        coop.spawn("ok", ok())
        coop.spawn("bad", bad())
        world.run_for(10.0)
        metrics = hub.metrics
        assert metrics.counter("runtime.tasks_spawned", source="coop").value == 2
        assert metrics.counter("runtime.tasks_completed", source="coop").value == 1
        assert metrics.counter("runtime.tasks_failed", source="coop").value == 1


class TestSeededRng:
    def test_same_seed_same_draws(self, world):
        a = CooperativeScheduler(world, seed=7)
        b = CooperativeScheduler(Scheduler(SimulatedClock()), seed=7)
        assert [a.rng.random() for _ in range(5)] == [
            b.rng.random() for _ in range(5)
        ]

    def test_different_seed_different_draws(self, world):
        a = CooperativeScheduler(world, seed=1)
        b = CooperativeScheduler(Scheduler(SimulatedClock()), seed=2)
        assert a.rng.random() != b.rng.random()
