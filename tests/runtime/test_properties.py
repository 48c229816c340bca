"""Property-based tests for the concurrency runtime's two contracts.

1. **Determinism** — two runs of the same seeded workload produce
   byte-identical trace exports (and identical shard layouts).  The
   workload itself is hypothesis-generated, so the property covers
   arbitrary interleavings of sleeps, priorities and dispatch charges,
   not just the shapes the unit tests happen to pick.
2. **Coalescing safety** — coalescing idempotent reads changes the
   execution count, never the results; and a ``set_property`` write
   always invalidates exactly that key's cached read.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.workforce import scenario
from repro.apps.workforce.proxied import launch_on_android
from repro.obs import Observability
from repro.runtime import ConcurrencyRuntime
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency

# One generated agent workload: priority plus a few (sleep, charge) legs.
LEG = st.tuples(
    st.floats(min_value=0.0, max_value=50.0),   # pre-sleep ms
    st.floats(min_value=0.1, max_value=40.0),   # dispatch charge ms
)
WORKLOAD = st.tuples(st.integers(min_value=0, max_value=3), st.lists(LEG, max_size=4))
FLEET_SPEC = st.lists(WORKLOAD, min_size=1, max_size=5)


def run_fleet_spec(spec, *, seed: int, shards: int):
    """Execute a generated workload mix; return every observable output."""
    world = Scheduler(SimulatedClock())
    hub = Observability()
    runtime = ConcurrencyRuntime(
        world, shards=shards, queue_depth=64, seed=seed, observability=hub
    )
    dispatcher = runtime.dispatcher("prop")

    def workload(legs):
        for sleep_ms, charge_ms in legs:
            yield sleep_ms
            yield dispatcher.submit(
                "leg",
                lambda c=charge_ms: world.clock.advance(c),
                tracer=hub.tracer,
            )

    for index, (priority, legs) in enumerate(spec):
        runtime.spawn(f"agent-{index}", workload(legs), priority=priority)
    runtime.drain()
    return {
        "export": hub.export_jsonl(),
        "per_shard": dispatcher.executed_per_shard(),
        "final_ms": world.clock.now_ms,
        "steps": [task.steps for task in runtime.tasks.tasks],
    }


class TestSchedulerDeterminism:
    @settings(max_examples=30, deadline=None)
    @given(spec=FLEET_SPEC, seed=st.integers(min_value=0, max_value=2**16))
    def test_same_seed_byte_identical(self, spec, seed):
        first = run_fleet_spec(spec, seed=seed, shards=3)
        second = run_fleet_spec(spec, seed=seed, shards=3)
        assert first["export"] == second["export"]  # byte-identical traces
        assert first == second

    @settings(max_examples=15, deadline=None)
    @given(spec=FLEET_SPEC)
    def test_shard_count_never_changes_results(self, spec):
        # sharding reorders *when* work runs, never what it computes:
        # every task takes the same number of steps and all work runs.
        narrow = run_fleet_spec(spec, seed=0, shards=1)
        wide = run_fleet_spec(spec, seed=0, shards=4)
        assert narrow["steps"] == wide["steps"]
        assert sum(narrow["per_shard"]) == sum(wide["per_shard"])


class TestCoalescingSafety:
    @settings(max_examples=30, deadline=None)
    @given(
        batches=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),   # concurrent GETs
                st.floats(min_value=1.0, max_value=30.0)  # gap to next batch
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_coalesced_equals_uncoalesced(self, batches):
        def run(coalesce: bool):
            world = Scheduler(SimulatedClock())
            runtime = ConcurrencyRuntime(world, shards=2, queue_depth=256)
            dispatcher = runtime.dispatcher("prop")
            executions = []
            results = []

            def read():
                executions.append(world.clock.now_ms)
                world.clock.advance(10.0)
                return "stable-body"

            def driver():
                for count, gap_ms in batches:
                    futures = [
                        dispatcher.submit(
                            "get",
                            read,
                            coalesce_key="GET:/status" if coalesce else None,
                        )
                        for _ in range(count)
                    ]
                    for future in futures:
                        value = yield future
                        results.append(value)
                    yield gap_ms

            runtime.spawn("driver", driver())
            runtime.drain()
            return results, len(executions)

        coalesced_results, coalesced_runs = run(coalesce=True)
        plain_results, plain_runs = run(coalesce=False)
        # identical results delivered in identical order...
        assert coalesced_results == plain_results
        # ...for no more (usually far fewer) substrate executions.
        assert coalesced_runs <= plain_runs


class TestPropertyInvalidation:
    @settings(max_examples=20, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.just(("get", None)),
                st.tuples(st.just("set"), st.text(min_size=1, max_size=8)),
            ),
            max_size=10,
        )
    )
    def test_cached_read_never_stale(self, ops):
        sc = scenario.build_android()
        logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
        runtime = ConcurrencyRuntime(sc.device.scheduler)
        for op, value in ops:
            if op == "set":
                logic.http.set_property("userAgent", value)
            # the invariant: the cache NEVER serves a value the proxy
            # itself would not return right now.
            assert runtime.get_property(logic.http, "userAgent") == (
                logic.http.get_property("userAgent")
            )
