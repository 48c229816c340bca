"""The adaptive admission plane: token buckets, priority shedding,
overflow leveling, the shard autoscaler, and their dispatcher wiring."""

import pytest

from repro.core.resilience import BackoffSchedule, ResiliencePolicy, ResilienceRuntime
from repro.core.proxies import standard_registry
from repro.errors import (
    ConfigurationError,
    ProxyOverloadError,
    ProxyThrottledError,
)
from repro.obs import Observability
from repro.runtime import (
    AdmissionConfig,
    AutoscalerConfig,
    ConcurrencyRuntime,
    TokenBucketConfig,
)
from repro.runtime.admission import (
    OverflowBuffer,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    ShardAutoscaler,
    TokenBucket,
    classify_operation,
    priority_name,
)
from repro.runtime.admission.controller import STORM_THRESHOLD, STORM_WINDOW_MS
from repro.util.clock import Scheduler, SimulatedClock

pytestmark = pytest.mark.concurrency


@pytest.fixture
def world():
    return Scheduler(SimulatedClock())


def make_runtime(world, **kwargs):
    kwargs.setdefault("observability", Observability())
    return ConcurrencyRuntime(world, **kwargs)


def charge(world, ms):
    return lambda: world.clock.advance(ms)


def plain_admission(**overrides):
    """An AdmissionConfig with every adaptive mechanism off unless
    overridden — lets each test enable exactly one."""
    config = dict(bucket=None, overflow_capacity=0, autoscaler=None)
    config.update(overrides)
    return AdmissionConfig(**config)


NAN = float("nan")
INF = float("inf")


class TestConfigsRejectValuesTheyCannotRun:
    """Settings reach these configs from outside the program (a scenario
    recording's untyped mapping), so a NaN, an infinity or a fractional
    count fails at construction instead of deep inside a drain."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("min_shards", 1.5),  # its first scale-down slices with it
            ("max_shards", 8.0),
            ("hysteresis_ticks", 2.0),
            ("min_shards", True),
            ("scale_up_depth", NAN),  # never scales up
            ("scale_up_depth", INF),
            ("scale_down_depth", NAN),
            ("scale_down_depth", -INF),
            ("scale_down_utilization", NAN),
            ("cooldown_ms", NAN),  # turns the cooldown off
            ("cooldown_ms", INF),
        ],
    )
    def test_autoscaler_config(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AutoscalerConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("rate_per_s", NAN),  # refills to full: never throttles
            ("rate_per_s", INF),
            ("capacity", NAN),  # every take rejected with a NaN hint
            ("capacity", INF),
        ],
    )
    def test_token_bucket_config(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            TokenBucketConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("overflow_capacity", 1.5),
            ("overflow_capacity", True),
        ],
    )
    def test_admission_config(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AdmissionConfig(**{field: value})


class TestTokenBucket:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucketConfig(rate_per_s=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucketConfig(capacity=0.0)

    def test_burst_then_throttle(self):
        bucket = TokenBucket(TokenBucketConfig(rate_per_s=10.0, capacity=3.0))
        assert [bucket.try_take(0.0) for _ in range(3)] == [None, None, None]
        retry_after = bucket.try_take(0.0)
        # One token refills in 100ms at 10/s.
        assert retry_after == pytest.approx(100.0)
        assert bucket.tokens >= 0.0  # rejection never drives it negative

    def test_refill_is_lazy_and_capped(self):
        bucket = TokenBucket(TokenBucketConfig(rate_per_s=10.0, capacity=2.0))
        assert bucket.try_take(0.0) is None
        assert bucket.try_take(0.0) is None
        # 10 virtual seconds pass: refill caps at capacity, not 100.
        assert bucket.try_take(10_000.0) is None
        assert bucket.tokens == pytest.approx(1.0)

    def test_retry_after_is_exact(self):
        bucket = TokenBucket(TokenBucketConfig(rate_per_s=4.0, capacity=1.0))
        assert bucket.try_take(0.0) is None
        hint = bucket.try_take(0.0)
        assert hint == pytest.approx(250.0)
        # Waiting exactly the hint admits the retry.
        assert bucket.try_take(hint) is None


class TestPriorityClasses:
    def test_default_map(self):
        assert classify_operation("get") == PRIORITY_LOW
        assert classify_operation("getLocation") == PRIORITY_LOW
        assert classify_operation("post") == PRIORITY_NORMAL
        assert classify_operation("sendTextMessage") == PRIORITY_HIGH
        assert classify_operation("frobnicate") == PRIORITY_NORMAL

    def test_names(self):
        assert priority_name(PRIORITY_LOW) == "low"
        assert priority_name(PRIORITY_HIGH) == "high"


class _Item:
    def __init__(self, seq, priority):
        self.seq = seq
        self.priority = priority


class TestOverflowBuffer:
    def test_drains_highest_class_fifo_within(self):
        buffer = OverflowBuffer(4)
        for seq, priority in enumerate(
            (PRIORITY_LOW, PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_HIGH)
        ):
            accepted, _ = buffer.offer(_Item(seq, priority))
            assert accepted
        order = [buffer.take().seq for _ in range(4)]
        assert order == [1, 3, 2, 0]
        assert buffer.take() is None

    def test_full_buffer_evicts_newest_of_lowest(self):
        buffer = OverflowBuffer(2)
        buffer.offer(_Item(0, PRIORITY_LOW))
        buffer.offer(_Item(1, PRIORITY_LOW))
        accepted, victim = buffer.offer(_Item(2, PRIORITY_NORMAL))
        assert accepted and victim.seq == 1  # newest low loses first
        refused, none = buffer.offer(_Item(3, PRIORITY_LOW))
        assert not refused and none is None

    def test_force_bypasses_bound(self):
        buffer = OverflowBuffer(0)
        refused, _ = buffer.offer(_Item(0, PRIORITY_LOW))
        assert not refused
        accepted, _ = buffer.offer(_Item(0, PRIORITY_LOW), force=True)
        assert accepted and len(buffer) == 1


class TestThrottling:
    def test_over_budget_fails_with_1013(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=8,
            admission=plain_admission(
                bucket=TokenBucketConfig(rate_per_s=10.0, capacity=2.0)
            ),
        )
        d = runtime.dispatcher("p")
        futures = [d.submit("work", charge(world, 5.0)) for _ in range(4)]
        throttled = [
            f for f in futures if isinstance(f.error, ProxyThrottledError)
        ]
        assert len(throttled) == 2
        error = throttled[0].error
        assert error.error_code == 1013
        assert error.transient
        assert error.retry_after_ms > 0.0
        assert error.context["platform"] == "p"
        assert error.context["tenant"] == "default"
        assert d.outcome_counts()["throttled"] == 2
        runtime.drain()
        assert d.completed_count == 2

    def test_tenants_have_independent_budgets(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=16,
            admission=plain_admission(
                bucket=TokenBucketConfig(rate_per_s=10.0, capacity=1.0)
            ),
        )
        d = runtime.dispatcher("p")
        ok_a = d.submit("work", charge(world, 5.0), tenant="a")
        ok_b = d.submit("work", charge(world, 5.0), tenant="b")
        refused_a = d.submit("work", charge(world, 5.0), tenant="a")
        assert ok_a.error is None or not ok_a.done()
        assert ok_b.error is None or not ok_b.done()
        assert isinstance(refused_a.error, ProxyThrottledError)
        assert refused_a.error.context["tenant"] == "a"
        runtime.drain()

    def test_virtual_time_refills_budget(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=8,
            admission=plain_admission(
                bucket=TokenBucketConfig(rate_per_s=10.0, capacity=1.0)
            ),
        )
        d = runtime.dispatcher("p")
        assert d.submit("work", charge(world, 5.0)).error is None
        refused = d.submit("work", charge(world, 5.0))
        assert isinstance(refused.error, ProxyThrottledError)
        world.run_for(refused.error.retry_after_ms)
        assert d.submit("work", charge(world, 5.0)).error is None
        runtime.drain()


class TestPriorityShedding:
    def test_full_queue_evicts_lower_class(self, world):
        runtime = make_runtime(
            world, shards=1, queue_depth=2, admission=plain_admission()
        )
        d = runtime.dispatcher("p")
        polls = [d.submit("get", charge(world, 10.0)) for _ in range(2)]
        report = d.submit("post", charge(world, 10.0))
        # Queue was [get#0, get#1] (full) → the post evicts the *newest*
        # queued get rather than shedding at the door.
        assert polls[0].error is None or not polls[0].done()
        evicted = [f for f in polls if isinstance(f.error, ProxyOverloadError)]
        assert len(evicted) == 1
        assert evicted[0] is polls[1]
        assert evicted[0].error.context["reason"] == "evicted"
        assert evicted[0].error.context["priority"] == "low"
        runtime.drain()
        assert report.error is None
        assert d.outcome_counts()["shed"] == 0  # eviction, not a door shed

    def test_evicted_victim_moves_to_a_free_buffer(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=2,
            admission=plain_admission(overflow_capacity=4),
        )
        d = runtime.dispatcher("p")
        order = []

        def work(name):
            return lambda: (order.append(name), world.clock.advance(10.0))

        polls = [d.submit("get", work(f"get{i}")) for i in range(2)]
        report = d.submit("post", work("post"))
        # The post still takes the newest get's queue slot, but that get
        # was admitted: it waits in the empty buffer instead of shedding.
        assert len(d.overflow) == 1
        assert d.shed_count == 0
        runtime.drain()
        assert all(f.error is None for f in polls + [report])
        assert order == ["get0", "post", "get1"]
        assert d.outcome_counts()["admitted"] == 3

    def test_evicted_victim_sheds_when_the_buffer_is_full(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=1,
            admission=plain_admission(overflow_capacity=1),
        )
        d = runtime.dispatcher("p")
        polls = [d.submit("get", charge(world, 10.0)) for _ in range(2)]
        # Queue [get#0], buffer [get#1]: the buffer holds nothing below
        # the victim's class, so the evicted get sheds.
        report = d.submit("post", charge(world, 10.0))
        assert isinstance(polls[0].error, ProxyOverloadError)
        assert polls[0].error.context["reason"] == "evicted"
        runtime.drain()
        assert polls[1].error is None and report.error is None

    def test_evicted_victim_displaces_a_lower_class_from_the_buffer(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=1,
            admission=plain_admission(overflow_capacity=1),
        )
        d = runtime.dispatcher("p")
        report = d.submit("post", charge(world, 10.0))
        poll = d.submit("get", charge(world, 10.0))  # absorbed
        # Queue [post], buffer [get]: the alert evicts the post, which
        # takes the full buffer's slot from the lower-class get.
        alert = d.submit("sendTextMessage", charge(world, 1.0))
        assert isinstance(poll.error, ProxyOverloadError)
        assert poll.error.context["reason"] == "evicted"
        assert poll.error.context["shard"] == -1
        runtime.drain()
        assert report.error is None and alert.error is None

    def test_equal_class_sheds_incoming(self, world):
        runtime = make_runtime(
            world, shards=1, queue_depth=1, admission=plain_admission()
        )
        d = runtime.dispatcher("p")
        d.submit("post", charge(world, 10.0))
        d.submit("post", charge(world, 10.0))
        refused = d.submit("post", charge(world, 10.0))
        assert isinstance(refused.error, ProxyOverloadError)
        assert refused.error.context["reason"] == "queue_full"
        runtime.drain()

    def test_evicted_coalesce_primary_fails_followers(self, world):
        runtime = make_runtime(
            world, shards=1, queue_depth=2, admission=plain_admission()
        )
        d = runtime.dispatcher("p")
        blocker = d.submit("post", charge(world, 10.0))
        primary = d.submit("get", charge(world, 5.0), coalesce_key="k")
        follower = d.submit("get", charge(world, 5.0), coalesce_key="k")
        # Queue [post, get] is full; the high-class alert evicts the
        # queued coalesce primary, taking its attached follower with it.
        alert = d.submit("sendTextMessage", charge(world, 1.0))
        assert isinstance(primary.error, ProxyOverloadError)
        assert isinstance(follower.error, ProxyOverloadError)
        # The shed accounting counts both failed futures, per-future.
        assert d.shed_count == 2
        runtime.drain()
        assert blocker.error is None and alert.error is None
        # A fresh coalesce key after eviction executes normally.
        again = d.submit("get", charge(world, 5.0), coalesce_key="k")
        runtime.drain()
        assert again.error is None


class TestLoadLeveling:
    def test_burst_absorbed_not_shed(self, world):
        runtime = make_runtime(
            world,
            shards=2,
            queue_depth=2,
            admission=plain_admission(overflow_capacity=8),
        )
        d = runtime.dispatcher("p")
        futures = [d.submit("work", charge(world, 10.0)) for _ in range(10)]
        outcomes = d.outcome_counts()
        assert outcomes["shed"] == 0
        assert outcomes["absorbed"] == 6  # 2 lanes × depth 2 admit 4
        runtime.drain()
        assert all(f.error is None for f in futures)
        assert d.absorbed_count == 6

    def test_buffer_drains_into_idle_lane(self, world):
        runtime = make_runtime(
            world,
            shards=2,
            queue_depth=1,
            admission=plain_admission(overflow_capacity=8),
        )
        d = runtime.dispatcher("p")
        # Lane 0 gets slow keyed work; unkeyed spill must not wait on it.
        for _ in range(2):
            d.submit("work", charge(world, 100.0), key="slow")
        for _ in range(6):
            d.submit("work", charge(world, 1.0))
        runtime.drain()
        executed = d.executed_per_shard()
        assert sum(executed) == 8
        assert min(executed) >= 2  # both lanes pulled buffered work

    def test_overflow_past_buffer_sheds(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=1,
            admission=plain_admission(overflow_capacity=1),
        )
        d = runtime.dispatcher("p")
        futures = [d.submit("work", charge(world, 10.0)) for _ in range(5)]
        shed = [f for f in futures if isinstance(f.error, ProxyOverloadError)]
        assert len(shed) == 3  # 1 queued, 1 absorbed, rest shed
        runtime.drain()


class TestResize:
    def test_grow_drains_overflow(self, world):
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=2,
            admission=plain_admission(overflow_capacity=8),
        )
        d = runtime.dispatcher("p")
        for _ in range(6):
            d.submit("work", charge(world, 10.0))
        assert len(d.overflow) == 4  # queue admits 2, the rest buffer
        d.resize(4)
        assert len(d.overflow) == 0  # leveled onto the new lanes
        runtime.drain()
        assert d.completed_count == 6

    def test_shrink_reflows_without_loss(self, world):
        runtime = make_runtime(world, shards=4, queue_depth=4)
        d = runtime.dispatcher("p")
        futures = [
            d.submit("work", charge(world, 10.0), key=f"k{i}") for i in range(12)
        ]
        d.resize(1)
        assert d.shards == 1
        runtime.drain()
        assert all(f.done() and f.error is None for f in futures)
        assert d.completed_count == 12

    def test_shrink_spills_to_buffer_when_survivors_full(self, world):
        runtime = make_runtime(
            world,
            shards=2,
            queue_depth=2,
            admission=plain_admission(overflow_capacity=1),
        )
        d = runtime.dispatcher("p")
        futures = [d.submit("work", charge(world, 10.0)) for _ in range(4)]
        d.resize(1)
        runtime.drain()
        assert all(f.error is None for f in futures)

    def test_resize_validates(self, world):
        runtime = make_runtime(world, shards=2, queue_depth=2)
        with pytest.raises(ConfigurationError):
            runtime.dispatcher("p").resize(0)

    def test_busy_lane_count(self, world):
        """``lane_load()`` is (queued requests, busy lanes): a lane is
        busy while it has a queue or its horizon lies after now."""
        runtime = make_runtime(world, shards=2, queue_depth=4)
        d = runtime.dispatcher("p")
        assert d.lane_load() == (0, 0)
        d.submit("work", charge(world, 10.0), key="a")
        d.submit("work", charge(world, 10.0), key="a")
        assert d.lane_load() == (2, 1)  # queued, nothing executed yet
        world.run_for(1.0)
        assert d.lane_load() == (1, 1)  # one mid-execution, one queued
        world.run_for(9.0)
        assert d.lane_load() == (0, 1)  # the second runs until 20 ms
        runtime.drain()
        assert world.clock.now_ms == 20.0
        assert d.lane_load() == (0, 0)  # a horizon at now is not busy


class TestAutoscaler:
    def _make(self, world, config=None, **runtime_kwargs):
        runtime_kwargs.setdefault("shards", 2)
        runtime_kwargs.setdefault("queue_depth", 4)
        runtime = make_runtime(
            world,
            admission=plain_admission(
                autoscaler=config
                or AutoscalerConfig(
                    min_shards=1,
                    max_shards=4,
                    scale_up_depth=2.0,
                    scale_down_depth=0.25,
                    hysteresis_ticks=2,
                    cooldown_ms=50.0,
                )
            ),
            **runtime_kwargs,
        )
        return runtime, runtime.dispatcher("p")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_shards=0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(min_shards=4, max_shards=2)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(scale_down_depth=5.0, scale_up_depth=1.0)
        with pytest.raises(ConfigurationError):
            AutoscalerConfig(hysteresis_ticks=0)

    def test_scales_up_under_backlog(self, world):
        runtime, d = self._make(world)
        scaler = runtime.autoscalers()["p"]
        for _ in range(10):
            d.submit("work", charge(world, 10.0))
        scaler.evaluate(0.0)
        assert d.shards == 2  # hysteresis: one hot tick is not a trend
        scaler.evaluate(0.0)
        assert d.shards == 3
        assert scaler.resizes[-1]["direction"] == "up"
        runtime.drain()

    def test_cooldown_blocks_flapping(self, world):
        runtime, d = self._make(world)
        scaler = runtime.autoscalers()["p"]
        for _ in range(12):
            d.submit("work", charge(world, 10.0))
        scaler.evaluate(0.0)
        scaler.evaluate(0.0)
        assert d.shards == 3
        scaler.evaluate(10.0)
        scaler.evaluate(20.0)
        assert d.shards == 3  # still cooling down
        scaler.evaluate(60.0)
        scaler.evaluate(70.0)
        assert d.shards == 4
        runtime.drain()

    def test_scales_down_when_idle(self, world):
        runtime, d = self._make(world)
        scaler = runtime.autoscalers()["p"]
        d.submit("work", charge(world, 5.0))
        runtime.drain()
        scaler.evaluate(100.0)
        scaler.evaluate(200.0)
        assert d.shards == 1
        assert scaler.resizes[-1]["direction"] == "down"

    def test_drain_evaluates_automatically(self, world):
        runtime, d = self._make(world)
        for _ in range(16):
            d.submit("work", charge(world, 10.0))
        runtime.drain()
        assert runtime.autoscalers()["p"].resizes  # it acted unprompted
        assert d.completed_count + d.shed_count + len(
            runtime.autoscalers()
        ) > 1


class TestStormDetection:
    def test_edge_triggered_storm_record(self, world):
        runtime = make_runtime(
            world, shards=1, queue_depth=1, admission=plain_admission()
        )
        d = runtime.dispatcher("p")
        for _ in range(STORM_THRESHOLD + 6):
            d.submit("work", charge(world, 10.0))
        controller = d.admission
        assert len(controller.storms) == 1  # one crossing, not one per shed
        storm = controller.storms[0]
        assert storm["kind"] == "shed"
        assert storm["rejections"] >= STORM_THRESHOLD
        assert storm["window_ms"] == STORM_WINDOW_MS
        runtime.drain()

    def test_rejections_outside_the_window_do_not_add_up(self, world):
        runtime = make_runtime(
            world, shards=1, queue_depth=1, admission=plain_admission()
        )
        d = runtime.dispatcher("p")
        for _ in range(STORM_THRESHOLD + 1):
            for _ in range(2):  # one queues, one sheds
                d.submit("work", charge(world, 10.0))
            runtime.drain()
            world.run_for(STORM_WINDOW_MS)
        assert d.shed_count == STORM_THRESHOLD + 1
        assert d.admission.storms == []


class TestRetryAfterHonored:
    def test_backoff_floors_at_the_hint(self):
        scheduler = Scheduler(SimulatedClock())
        binding = standard_registry().binding("Http", "android")
        runtime = ResilienceRuntime(
            ResiliencePolicy(
                max_attempts=2,
                backoff=BackoffSchedule(
                    initial_delay_ms=10.0, multiplier=1.0, max_delay_ms=10.0,
                    jitter=0.0,
                ),
            ),
            scheduler,
            label="throttle-test",
        )
        calls = []

        def throttled_once():
            calls.append(scheduler.clock.now_ms)
            if len(calls) == 1:
                raise ProxyThrottledError("slow down", retry_after_ms=500.0)
            return "ok"

        assert runtime.execute(binding, "get", throttled_once) == "ok"
        # The 10ms schedule was floored to the 500ms hint.
        assert calls[1] - calls[0] == pytest.approx(500.0)

    def test_schedule_wins_when_longer(self):
        scheduler = Scheduler(SimulatedClock())
        binding = standard_registry().binding("Http", "android")
        runtime = ResilienceRuntime(
            ResiliencePolicy(
                max_attempts=2,
                backoff=BackoffSchedule(
                    initial_delay_ms=1_000.0, multiplier=1.0,
                    max_delay_ms=1_000.0, jitter=0.0,
                ),
            ),
            scheduler,
            label="throttle-test",
        )
        calls = []

        def throttled_once():
            calls.append(scheduler.clock.now_ms)
            if len(calls) == 1:
                raise ProxyThrottledError("slow down", retry_after_ms=5.0)
            return "ok"

        assert runtime.execute(binding, "get", throttled_once) == "ok"
        assert calls[1] - calls[0] == pytest.approx(1_000.0)


class TestEnrichedEvents:
    def test_shed_event_carries_context(self, world):
        hub = Observability()
        runtime = make_runtime(
            world, shards=1, queue_depth=1, observability=hub
        )
        d = runtime.dispatcher("android")
        for _ in range(3):
            d.submit("burst", charge(world, 10.0), tracer=hub.tracer)
        shed_events = [
            event
            for span in hub.tracer.finished_spans()
            for event in span.events
            if event.name == "queue.shed"
        ]
        assert shed_events
        attrs = shed_events[0].attributes
        assert attrs["platform"] == "android"
        assert attrs["bound"] == 1
        assert attrs["reason"] == "queue_full"
        assert attrs["priority"] == "normal"
        assert "shard" in attrs and "depth" in attrs
        runtime.drain()

    def test_throttle_event_and_span_outcome(self, world):
        hub = Observability()
        runtime = make_runtime(
            world,
            shards=1,
            queue_depth=8,
            observability=hub,
            admission=plain_admission(
                bucket=TokenBucketConfig(rate_per_s=10.0, capacity=1.0)
            ),
        )
        d = runtime.dispatcher("android")
        d.submit("work", charge(world, 5.0), tracer=hub.tracer)
        d.submit("work", charge(world, 5.0), tracer=hub.tracer)
        throttle_spans = [
            span
            for span in hub.tracer.finished_spans()
            if span.attributes.get("outcome") == "throttled"
        ]
        assert len(throttle_spans) == 1
        assert throttle_spans[0].status == "error"
        (event,) = throttle_spans[0].events
        assert event.name == "queue.throttled"
        assert event.attributes["retry_after_ms"] > 0
        runtime.drain()

    def test_1012_context_dict(self, world):
        runtime = make_runtime(world, shards=1, queue_depth=1)
        d = runtime.dispatcher("s60")
        d.submit("burst", charge(world, 10.0))
        d.submit("burst", charge(world, 10.0))
        refused = d.submit("burst", charge(world, 10.0))
        assert refused.error.context == {
            "platform": "s60",
            "shard": 0,
            "depth": 1,
            "bound": 1,
            "priority": "normal",
            "operation": "burst",
            "reason": "queue_full",
        }
        runtime.drain()


class TestBridgeRegistration:
    def test_1012_and_1013_are_uniform(self):
        from repro.core.proxy.exceptions import UNIFORM_ERRORS

        codes = {cls.error_code for cls in UNIFORM_ERRORS.values()}
        assert {1012, 1013} <= codes

    def test_1013_attributes_survive_construction(self):
        error = ProxyThrottledError(
            "busy", retry_after_ms=42.0, context={"tenant": "a"}
        )
        assert error.retry_after_ms == 42.0
        assert error.context["tenant"] == "a"
        bare = ProxyThrottledError("it broke")  # bridge-side reconstruction
        assert bare.retry_after_ms == 0.0
        assert bare.context == {}
