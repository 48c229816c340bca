"""The runtime's control path against its earlier form.

``ShardAutoscaler.evaluate`` counts queued requests and busy lanes in
one pass over the dispatcher's lanes, autoscalers are visited in an
order fixed when each is created, and ``ConcurrencyRuntime.drain``
decides quiescence and the earliest lane horizon in one sweep over the
dispatchers.  ``ReferenceAutoscaler`` and ``ReferenceRuntime`` keep the
earlier forms: a ``signal()`` built from a list of per-lane depths (the
installed sampler's last ``runtime.queue_depth`` points when it has
them, the live queues otherwise) and a second walk for the busy lanes,
platform names sorted on every tick, and a drain that asks
``quiescent`` (every lane of every dispatcher) and then every
dispatcher for its next lane event.  The properties require ``==`` on
every decision, on the instant and order of every evaluation, and on
``now_ms`` after ``drain()``.  The live autoscaler reads only the live
queues: the drain property shows that the sampled signal never decided
differently on a schedule the runtime can reach.
"""

from typing import Dict, List, Optional
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import Observability
from repro.runtime import (
    DRAIN_LIMIT_MS,
    AdmissionConfig,
    AutoscalerConfig,
    ConcurrencyRuntime,
    Dispatcher,
    ShardAutoscaler,
)
from repro.runtime.dispatcher import _Request
from repro.util.clock import Scheduler, SimulatedClock
from tests.runtime.test_admission_properties import ARRIVALS, PRIORITY_OPS

pytestmark = pytest.mark.concurrency


# -- the earlier control path --------------------------------------------------


def _queue_depths(dispatcher) -> List[int]:
    return [len(shard.queue) for shard in dispatcher._shards]


def _busy_lane_count(dispatcher) -> int:
    now = dispatcher._clock.now_ms
    return sum(
        1
        for shard in dispatcher._shards
        if shard.queue or shard.busy_until_ms > now
    )


def _idle(dispatcher) -> bool:
    if dispatcher.unsettled or (
        dispatcher.overflow is not None and len(dispatcher.overflow)
    ):
        return False
    now = dispatcher._clock.now_ms
    return all(
        not shard.queue and shard.busy_until_ms <= now
        for shard in dispatcher._shards
    )


def _next_event_ms(dispatcher) -> Optional[float]:
    now = dispatcher._clock.now_ms
    earliest = None
    for shard in dispatcher._shards:
        horizon = shard.busy_until_ms
        if (shard.queue or horizon > now) and (
            earliest is None or horizon < earliest
        ):
            earliest = horizon
    return earliest


class ReferenceAutoscaler(ShardAutoscaler):
    """The earlier tick: ``signal()`` lists the per-lane depths (or the
    sampler's series) as floats and walks the lanes again for the busy
    count; the decision logic is unchanged."""

    def __init__(self, dispatcher, config, *, sampler=None, observability=None):
        super().__init__(dispatcher, config, observability=observability)
        self._sampler = sampler

    def _sampled_depths(self) -> Optional[List[float]]:
        if self._sampler is None:
            return None
        live = self.dispatcher.shards
        depths: Dict[int, float] = {}
        for series in self._sampler.tracked_series():
            if series.metric != "runtime.queue_depth":
                continue
            if series.labels.get("source") != self.dispatcher.platform:
                continue
            try:
                shard = int(series.labels.get("shard", ""))
            except ValueError:
                continue
            if shard >= live or not series.points:
                continue
            depths[shard] = series.points[-1][1]
        if not depths:
            return None
        return [depths.get(index, 0.0) for index in range(live)]

    def signal(self) -> Dict[str, float]:
        depths = self._sampled_depths()
        if depths is None:
            depths = [float(d) for d in _queue_depths(self.dispatcher)]
        lanes = max(1, self.dispatcher.shards)
        return {
            "mean_depth": sum(depths) / lanes,
            "utilization": _busy_lane_count(self.dispatcher) / lanes,
        }

    def evaluate(self, now_ms: float) -> Optional[int]:
        config = self.config
        inputs = self.signal()
        mean_depth = inputs["mean_depth"]
        utilization = inputs["utilization"]
        if mean_depth >= config.scale_up_depth:
            self._up_streak += 1
            self._down_streak = 0
        elif (
            mean_depth <= config.scale_down_depth
            and utilization <= config.scale_down_utilization
        ):
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
        in_cooldown = (
            self._last_resize_ms is not None
            and now_ms - self._last_resize_ms < config.cooldown_ms
        )
        if in_cooldown:
            return None
        current = self.dispatcher.shards
        target = current
        if self._up_streak >= config.hysteresis_ticks:
            target = min(config.max_shards, current + 1)
        elif self._down_streak >= config.hysteresis_ticks:
            target = max(config.min_shards, current - 1)
        if target == current:
            return None
        self._up_streak = 0
        self._down_streak = 0
        self._last_resize_ms = now_ms
        self.dispatcher.resize(target)
        direction = "up" if target > current else "down"
        (self._resizes_up if target > current else self._resizes_down).inc()
        self._shards_gauge.set(target)
        self.resizes.append(
            {
                "t_ms": round(now_ms, 6),
                "from": current,
                "to": target,
                "direction": direction,
                "mean_depth": round(mean_depth, 6),
                "utilization": round(utilization, 6),
            }
        )
        if self._obs is not None and self._obs.tracer.enabled:
            tracer = self._obs.tracer
            with tracer.span(
                "autoscale:resize",
                platform=self.dispatcher.platform,
                outcome=direction,
            ):
                tracer.event(
                    "autoscale.resize",
                    platform=self.dispatcher.platform,
                    from_shards=current,
                    to_shards=target,
                    direction=direction,
                    mean_depth=round(mean_depth, 3),
                )
        if self._obs is not None and self._obs.flight is not None:
            self._obs.flight.note(
                "autoscale.resize",
                platform=self.dispatcher.platform,
                from_shards=current,
                to_shards=target,
                direction=direction,
            )
        return target


class ReferenceRuntime(ConcurrencyRuntime):
    """The earlier drain loop: sorted platform names on every tick, a
    ``quiescent`` walk over every lane, then a second walk for the
    earliest lane horizon."""

    def dispatcher(self, platform: str) -> Dispatcher:
        dispatcher = self._dispatchers.get(platform)
        if dispatcher is None:
            dispatcher = Dispatcher(
                self.scheduler,
                platform=platform,
                shards=self.default_shards,
                queue_depth=self.queue_depth,
                observability=self.observability,
                admission=self.admission,
            )
            self._dispatchers[platform] = dispatcher
            if self.admission is not None and self.admission.autoscaler is not None:
                self._autoscalers[platform] = ReferenceAutoscaler(
                    dispatcher,
                    self.admission.autoscaler,
                    sampler=self.observability.sampler,
                    observability=self.observability,
                )
        return dispatcher

    def evaluate_autoscalers(self) -> None:
        now = self.scheduler.clock.now_ms
        for platform in sorted(self._autoscalers):
            self._autoscalers[platform].evaluate(now)

    @property
    def quiescent(self) -> bool:
        tasks = self.tasks
        if tasks.settled_count != len(tasks.tasks):
            return False
        return all(_idle(d) for d in self._dispatchers.values())

    def drain(self) -> int:
        scheduler = self.scheduler
        clock = scheduler.clock
        limit_ms = clock.now_ms + DRAIN_LIMIT_MS
        executed = 0
        while True:
            if self._autoscalers:
                self.evaluate_autoscalers()
            if self.quiescent:
                return executed
            target = scheduler.next_deadline_ms()
            for dispatcher in self._dispatchers.values():
                horizon = _next_event_ms(dispatcher)
                if horizon is not None and (target is None or horizon < target):
                    target = horizon
            if target is None:
                return executed
            if target > limit_ms:
                raise RuntimeError("drain did not reach quiescence")
            now = clock.now_ms
            executed += scheduler.run_until(target if target > now else now)


def _recorded(scaler_class, log):
    """Patch ``scaler_class.evaluate`` to log ``(platform, now_ms)``."""
    evaluate = scaler_class.evaluate

    def recording(scaler, now_ms):
        log.append((scaler.dispatcher.platform, now_ms))
        return evaluate(scaler, now_ms)

    return mock.patch.object(scaler_class, "evaluate", recording)


def _decisions(runtime: ConcurrencyRuntime) -> Dict[str, tuple]:
    """Everything the autoscalers decided, per platform."""
    metrics = runtime.observability.metrics
    decided = {}
    for platform, scaler in runtime.autoscalers().items():
        label = dict(source=platform)
        decided[platform] = (
            scaler.resizes,
            scaler._up_streak,
            scaler._down_streak,
            scaler._last_resize_ms,
            scaler.dispatcher.shards,
            metrics.gauge("admission.shards", **label).value,
            metrics.counter(
                "admission.autoscale_resizes", direction="up", **label
            ).value,
            metrics.counter(
                "admission.autoscale_resizes", direction="down", **label
            ).value,
            scaler.dispatcher.outcome_counts(),
        )
    return decided


# -- strategies ----------------------------------------------------------------

#: No sampler; a sampler tracking nothing (the live queues still feed the
#: signal); a sampler tracking every lane's ``runtime.queue_depth``.
SAMPLERS = st.sampled_from(("none", "idle", "tracking"))


@st.composite
def autoscaler_configs(draw):
    min_shards = draw(st.integers(min_value=1, max_value=2))
    up = draw(st.sampled_from((0.5, 1.0, 1.5, 2.0, 3.0)))
    return AutoscalerConfig(
        min_shards=min_shards,
        max_shards=draw(st.integers(min_value=min_shards, max_value=5)),
        scale_up_depth=up,
        scale_down_depth=min(up, draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)))),
        scale_down_utilization=draw(st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0))),
        hysteresis_ticks=draw(st.integers(min_value=1, max_value=3)),
        cooldown_ms=draw(st.sampled_from((0.0, 10.0, 40.0))),
    )


#: A lane's busy horizon relative to the clock: before, at or after now.
HORIZONS = {"before": -7.5, "at": 0.0, "after": 12.5}
MAX_LANES = 6
LANE = st.tuples(
    st.integers(min_value=0, max_value=3), st.sampled_from(tuple(HORIZONS))
)
TICK = st.tuples(
    st.sampled_from((0.0, 0.0, 5.0, 12.5, 30.0)),  # clock advance first
    st.lists(LANE, min_size=MAX_LANES, max_size=MAX_LANES),
    st.sampled_from((0.0, 0.0, 5.0, 10.0, 40.0)),  # evaluation instant step
)


class TestTickAgainstReference:
    """Lane states are set by hand, so no sampler is installed: its
    depths would lag the hand-set queues, a state no runtime produces."""

    def _world(self, runtime_class, config, shards):
        world = Scheduler(SimulatedClock())
        hub = Observability()
        runtime = runtime_class(
            world,
            shards=shards,
            queue_depth=8,
            observability=hub,
            admission=AdmissionConfig(
                bucket=None, overflow_capacity=4, autoscaler=config
            ),
        )
        runtime.dispatcher("prop")
        return world, runtime

    @staticmethod
    def _set_lanes(world, runtime, lanes, seq):
        """Give every live lane a queue and a busy horizon; the world's
        heap is never run."""
        now = world.clock.now_ms
        dispatcher = runtime.dispatcher("prop")
        for shard, (queued, horizon) in zip(dispatcher._shards, lanes):
            shard.queue.clear()
            for _ in range(queued):
                seq[0] += 1
                shard.queue.append(
                    _Request(
                        seq[0], "get", lambda: None, coalesce_key=None, tracer=None
                    )
                )
            shard.busy_until_ms = now + HORIZONS[horizon]

    @settings(max_examples=150, deadline=None)
    @given(
        config=autoscaler_configs(),
        shards=st.integers(min_value=1, max_value=4),
        ticks=st.lists(TICK, min_size=1, max_size=12),
    )
    def test_evaluate_matches_reference(self, config, shards, ticks):
        sides = [
            self._world(cls, config, shards)
            for cls in (ConcurrencyRuntime, ReferenceRuntime)
        ]
        seqs = [[0], [0]]
        instant = 0.0
        for advance, lanes, step in ticks:
            instant += step
            returned = []
            for (world, runtime), seq in zip(sides, seqs):
                world.clock.advance(advance)
                self._set_lanes(world, runtime, lanes, seq)
                returned.append(runtime.autoscalers()["prop"].evaluate(instant))
            live, reference = (runtime for _, runtime in sides)
            assert returned[0] == returned[1]
            assert _decisions(live) == _decisions(reference)
            assert _queue_depths(live.dispatcher("prop")) == _queue_depths(
                reference.dispatcher("prop")
            )


class TestDrainAgainstReference:
    def _drive(self, runtime_class, scaler_class, arrivals, config, sampler, lazy, two):
        world = Scheduler(SimulatedClock())
        hub = Observability()
        if sampler != "none":
            installed = hub.install_sampler()
            if sampler == "tracking":
                installed.track("runtime.queue_depth")
        runtime = runtime_class(
            world,
            shards=2,
            queue_depth=8,
            observability=hub,
            admission=AdmissionConfig(
                bucket=None, overflow_capacity=32, autoscaler=config
            ),
        )
        platforms = ("prop", "alt") if two else ("prop",)
        if not lazy:
            for platform in platforms:
                runtime.dispatcher(platform)
        results = []

        def feeder():
            for index, (gap, priority, charge) in enumerate(arrivals):
                yield gap
                future = runtime.submit(
                    platforms[index % len(platforms)],
                    PRIORITY_OPS[priority],
                    lambda i=index, c=charge: (world.clock.advance(c), i)[1],
                    tracer=hub.tracer,
                )
                future.add_done_callback(
                    lambda f: results.append((f.value, f.error is None))
                )

        evaluations = []
        with _recorded(scaler_class, evaluations):
            runtime.spawn("feeder", feeder())
            executed = runtime.drain()
        return (
            _decisions(runtime),
            evaluations,
            world.clock.now_ms,
            executed,
            results,
            hub.export_jsonl(),
            runtime.tasks.tasks[0].state,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        arrivals=ARRIVALS,
        config=autoscaler_configs(),
        sampler=SAMPLERS,
        lazy=st.booleans(),
        two=st.booleans(),
    )
    def test_drain_matches_reference(self, arrivals, config, sampler, lazy, two):
        live = self._drive(
            ConcurrencyRuntime, ShardAutoscaler, arrivals, config, sampler, lazy, two
        )
        reference = self._drive(
            ReferenceRuntime, ReferenceAutoscaler, arrivals, config, sampler, lazy, two
        )
        assert live == reference
        assert live[-1] == "done"
