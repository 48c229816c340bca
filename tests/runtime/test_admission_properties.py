"""Property-based tests for the admission plane's three contracts.

1. **Bucket safety** — token balances never go negative under arbitrary
   take sequences, and identically-seeded workloads make byte-identical
   throttling decisions (same rejected set, same trace export).
2. **Shedding order** — a full queue never drops a higher class while a
   strictly lower class sits queued: the victim of every admission
   decision is minimal in the system at that instant.
3. **Autoscaler bounds** — the shard count never leaves
   ``[min_shards, max_shards]``, and autoscaling changes *when* work
   runs, never what it computes: the completed set matches a
   fixed-shard run of the same workload.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ProxyOverloadError, ProxyThrottledError
from repro.obs import Observability
from repro.runtime import (
    AdmissionConfig,
    AutoscalerConfig,
    ConcurrencyRuntime,
    TokenBucketConfig,
)
from repro.runtime.admission import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    TokenBucket,
)
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency

PRIORITY_OPS = {
    PRIORITY_LOW: "get",
    PRIORITY_NORMAL: "post",
    PRIORITY_HIGH: "sendTextMessage",
}

# An arrival: (gap to previous arrival ms, priority class, charge ms).
ARRIVAL = st.tuples(
    st.floats(min_value=0.0, max_value=30.0),
    st.sampled_from((PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)),
    st.floats(min_value=0.5, max_value=25.0),
)
ARRIVALS = st.lists(ARRIVAL, min_size=1, max_size=25)


class TestBucketSafety:
    @settings(max_examples=50, deadline=None)
    @given(
        rate=st.floats(min_value=0.5, max_value=100.0),
        capacity=st.floats(min_value=1.0, max_value=20.0),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=500.0), min_size=1, max_size=40
        ),
    )
    def test_balance_never_negative(self, rate, capacity, gaps):
        bucket = TokenBucket(TokenBucketConfig(rate_per_s=rate, capacity=capacity))
        now = 0.0
        for gap in gaps:
            now += gap
            hint = bucket.try_take(now)
            assert bucket.tokens >= 0.0
            assert bucket.tokens <= capacity
            if hint is not None:
                assert hint > 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        arrivals=ARRIVALS,
        seed=st.integers(min_value=0, max_value=2**16),
        rate=st.floats(min_value=1.0, max_value=60.0),
    )
    def test_same_seed_identical_throttling(self, arrivals, seed, rate):
        def run():
            world = Scheduler(SimulatedClock())
            hub = Observability()
            runtime = ConcurrencyRuntime(
                world,
                shards=2,
                queue_depth=64,
                seed=seed,
                observability=hub,
                admission=AdmissionConfig(
                    bucket=TokenBucketConfig(rate_per_s=rate, capacity=2.0),
                    overflow_capacity=0,
                    autoscaler=None,
                ),
            )
            dispatcher = runtime.dispatcher("prop")
            futures = []

            def feeder():
                for gap, priority, charge in arrivals:
                    yield gap
                    futures.append(
                        dispatcher.submit(
                            PRIORITY_OPS[priority],
                            lambda c=charge: world.clock.advance(c),
                            tracer=hub.tracer,
                        )
                    )

            runtime.spawn("feeder", feeder())
            runtime.drain()
            throttled = [
                index
                for index, future in enumerate(futures)
                if isinstance(future.error, ProxyThrottledError)
            ]
            return throttled, dispatcher.outcome_counts(), hub.export_jsonl()

        first_throttled, first_outcomes, first_export = run()
        second_throttled, second_outcomes, second_export = run()
        assert first_throttled == second_throttled
        assert first_outcomes == second_outcomes
        assert first_export == second_export


class TestSheddingOrder:
    @settings(max_examples=40, deadline=None)
    @given(
        arrivals=st.lists(
            st.tuples(
                st.sampled_from((PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_HIGH)),
                st.floats(min_value=1.0, max_value=20.0),
            ),
            min_size=2,
            max_size=30,
        ),
        queue_depth=st.integers(min_value=1, max_value=4),
    )
    def test_never_drops_higher_while_lower_queued(self, arrivals, queue_depth):
        world = Scheduler(SimulatedClock())
        runtime = ConcurrencyRuntime(
            world,
            shards=1,
            queue_depth=queue_depth,
            observability=Observability(),
            admission=AdmissionConfig(
                bucket=None, overflow_capacity=0, autoscaler=None
            ),
        )
        dispatcher = runtime.dispatcher("prop")
        live = {}  # future -> priority, for everything not yet rejected

        def queued_priorities():
            return [p for f, p in live.items() if not f.done()]

        for priority, charge in arrivals:
            # All at t=0: the queue fills and every admission decision
            # (door shed or eviction) is observable synchronously.
            future = dispatcher.submit(
                PRIORITY_OPS[priority],
                lambda c=charge: world.clock.advance(c),
            )
            live[future] = priority
            rejected = [
                (f, p)
                for f, p in live.items()
                if isinstance(f.error, ProxyOverloadError)
            ]
            for f, p in rejected:
                del live[f]
                # The invariant: at the instant f was dropped, nothing
                # of a strictly lower class may remain queued.
                floor = min(queued_priorities(), default=p)
                assert floor >= p, (
                    f"dropped class {p} while class {floor} stayed queued"
                )
        runtime.drain()
        assert all(f.error is None for f in live)


class TestAutoscalerBounds:
    CONFIG = AutoscalerConfig(
        min_shards=1,
        max_shards=4,
        scale_up_depth=1.5,
        scale_down_depth=0.25,
        scale_down_utilization=0.6,
        hysteresis_ticks=2,
        cooldown_ms=40.0,
    )

    def _run(self, arrivals, *, autoscale):
        world = Scheduler(SimulatedClock())
        hub = Observability()
        hub.install_sampler()
        runtime = ConcurrencyRuntime(
            world,
            shards=2,
            queue_depth=8,
            observability=hub,
            admission=AdmissionConfig(
                bucket=None,
                overflow_capacity=32,
                autoscaler=self.CONFIG if autoscale else None,
            ),
        )
        dispatcher = runtime.dispatcher("prop")
        results = []
        shard_counts = []

        def feeder():
            for index, (gap, priority, charge) in enumerate(arrivals):
                yield gap
                future = dispatcher.submit(
                    PRIORITY_OPS[priority],
                    lambda i=index, c=charge: (world.clock.advance(c), i)[1],
                )
                future.add_done_callback(
                    lambda f: results.append(f.value) if f.error is None else None
                )
                shard_counts.append(dispatcher.shards)

        runtime.spawn("feeder", feeder())
        runtime.drain()
        shard_counts.append(dispatcher.shards)
        return results, shard_counts, dispatcher

    @settings(max_examples=20, deadline=None)
    @given(arrivals=ARRIVALS)
    def test_bounds_and_result_parity(self, arrivals):
        scaled_results, shard_counts, scaled = self._run(arrivals, autoscale=True)
        fixed_results, _, fixed = self._run(arrivals, autoscale=False)
        config = self.CONFIG
        assert all(
            config.min_shards <= count <= config.max_shards
            for count in shard_counts
        )
        # Autoscaling moves *when* work runs, never what it computes.
        assert sorted(scaled_results) == sorted(fixed_results)
        assert scaled.completed_count == fixed.completed_count
        assert scaled.outcome_counts()["shed"] == 0
        assert fixed.outcome_counts()["shed"] == 0
