"""Unit tests for the cooperative task scheduler."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ProxyError, ProxyTransientError
from repro.runtime import ConcurrencyRuntime, CooperativeScheduler, Future
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

    @pytest.mark.parametrize("delay", (float("nan"), float("inf")), ids=("nan", "inf"))
    def test_non_finite_sleep_fails_only_that_task(self, world, coop, delay):
        def task():
            yield delay

        def peer():
            yield 5.0
            return "fine"

        bad = coop.spawn("non-finite", task())
        good = coop.spawn("peer", peer())
        world.run_for(10.0)
        assert bad.state == "failed" and isinstance(bad.error, ConfigurationError)
        assert good.state == "done" and good.result == "fine"
        assert world.clock.now_ms == 10.0


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


# -- the settled-task count, against a full scan of task states ---------------

_TASK_OPS = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from((0.0, 1.0, 5.0))),
    st.just(("none",)),
    st.tuples(st.just("wait"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("resolve"), st.integers(0, 3)),
    st.tuples(st.just("bad"), st.sampled_from(("x", -1.0, math.nan, math.inf))),
    st.just(("raise",)),
    st.tuples(st.just("spawn"), st.integers(0, 5)),
)
_DRIVER_OPS = st.one_of(
    st.tuples(st.just("run"), st.sampled_from((0.0, 1.0, 3.0))),
    st.tuples(st.sampled_from(("resolve", "fail")), st.integers(0, 3)),
    st.tuples(st.just("wake"), st.integers(0, 10)),
)


def _scanned_settled(coop):
    return sum(task.state in ("done", "failed", "waiting") for task in coop.tasks)


class TestSettledCount:
    @settings(max_examples=150, deadline=None)
    @given(
        scripts=st.lists(st.lists(_TASK_OPS, max_size=6), min_size=1, max_size=6),
        driver=st.lists(_DRIVER_OPS, max_size=20),
    )
    def test_matches_a_full_scan(self, scripts, driver):
        """Normal returns, raises, bad yields, futures resolved and failed
        (before and after a task parks on them), tasks spawned by tasks,
        and tasks woken again while ready, sleeping or waiting."""
        world = Scheduler(SimulatedClock())
        coop = CooperativeScheduler(world, seed=0)
        futures = [Future() for _ in range(4)]
        spawn_budget = [10]

        def agent(script):
            for op in script:
                kind = op[0]
                if kind in ("sleep", "bad"):
                    yield op[1]
                elif kind == "none":
                    yield None
                elif kind == "wait":
                    try:
                        yield futures[op[1]]
                    except ProxyError:
                        if not op[2]:
                            raise
                elif kind == "resolve":
                    if not futures[op[1]].done():
                        futures[op[1]].resolve("by a task")
                elif kind == "raise":
                    raise RuntimeError("agent bug")
                elif spawn_budget[0] > 0:
                    spawn_budget[0] -= 1
                    coop.spawn("child", agent(scripts[op[1] % len(scripts)]))
            return "ok"

        def check():
            assert coop.settled_count == _scanned_settled(coop)

        coop.add_drain_hook(check)
        for index, script in enumerate(scripts):
            coop.spawn(f"agent-{index}", agent(script))
        check()
        for kind, arg in driver:
            if kind == "run":
                world.run_for(arg)
            elif kind == "wake":
                coop._wake(coop.tasks[arg % len(coop.tasks)])
            elif not futures[arg].done():
                if kind == "resolve":
                    futures[arg].resolve("by the driver")
                else:
                    futures[arg].fail(ProxyTransientError("by the driver"))
            check()
        world.run_for(100.0)
        check()


# -- ConcurrencyRuntime.drain -------------------------------------------------


class TestRuntimeDrain:
    def test_a_nan_yield_fails_one_task_and_the_rest_finish(self, world):
        runtime = ConcurrencyRuntime(world)

        def healthy():
            for _ in range(3):
                yield 250.0
            return "fine"

        def poisoned():
            yield 10.0
            yield float("nan")

        good = [runtime.spawn("healthy-0", healthy())]
        bad = runtime.spawn("poisoned", poisoned())
        good += [runtime.spawn(f"healthy-{i}", healthy()) for i in (1, 2)]
        runtime.drain()
        assert [task.state for task in good] == ["done"] * 3
        assert bad.state == "failed" and isinstance(bad.error, ConfigurationError)
        assert world.clock.now_ms == 750.0

    def test_bound_is_virtual_time_not_heap_instants(self, world):
        """150 timers at distinct phases put 150 heap instants in every
        virtual second; a 700 s sleep spans 105,000 of them."""
        runtime = ConcurrencyRuntime(world)
        for phase in range(150):
            world.call_every(1_000.0, lambda: None, initial_delay_ms=phase * 6.5)

        def sleeper():
            yield 700_000.0

        task = runtime.spawn("sleeper", sleeper())
        runtime.drain()
        assert task.state == "done"
        assert world.clock.now_ms == 700_000.0

    def test_a_task_that_never_settles_still_raises(self, world):
        from repro.runtime import DRAIN_LIMIT_MS

        runtime = ConcurrencyRuntime(world)

        def forever():
            while True:
                yield 1_000.0

        runtime.spawn("forever", forever())
        with pytest.raises(RuntimeError, match="quiescence"):
            runtime.drain()
        assert DRAIN_LIMIT_MS - 1_000.0 <= world.clock.now_ms <= DRAIN_LIMIT_MS
