"""Tests for the virtual clock and scheduler."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ClockError
from repro.util.clock import Scheduler, SimulatedClock


class TestSimulatedClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now_ms == 0.0

    def test_starts_at_given_time(self):
        assert SimulatedClock(500.0).now_ms == 500.0

    def test_negative_start_rejected(self):
        with pytest.raises(ClockError):
            SimulatedClock(-1.0)

    def test_advance(self):
        clock = SimulatedClock()
        assert clock.advance(250.0) == 250.0
        assert clock.now_ms == 250.0

    def test_advance_negative_rejected(self):
        with pytest.raises(ClockError):
            SimulatedClock().advance(-1.0)

    def test_advance_to(self):
        clock = SimulatedClock()
        clock.advance_to(100.0)
        assert clock.now_ms == 100.0

    def test_advance_to_past_rejected(self):
        clock = SimulatedClock(100.0)
        with pytest.raises(ClockError):
            clock.advance_to(50.0)

    def test_now_s(self):
        clock = SimulatedClock(1_500.0)
        assert clock.now_s() == 1.5

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=20))
    def test_advance_is_cumulative(self, deltas):
        clock = SimulatedClock()
        for delta in deltas:
            clock.advance(delta)
        assert clock.now_ms == pytest.approx(sum(deltas))


class TestScheduler:
    def test_call_later_runs_at_deadline(self, scheduler):
        fired = []
        scheduler.call_later(100.0, lambda: fired.append(scheduler.clock.now_ms))
        scheduler.run_for(99.0)
        assert fired == []
        scheduler.run_for(1.0)
        assert fired == [100.0]

    def test_call_at_absolute(self, scheduler):
        fired = []
        scheduler.call_at(50.0, lambda: fired.append(True))
        scheduler.run_until(50.0)
        assert fired == [True]

    def test_call_at_past_rejected(self, scheduler):
        scheduler.clock.advance(10.0)
        with pytest.raises(ClockError):
            scheduler.call_at(5.0, lambda: None)

    def test_negative_delay_rejected(self, scheduler):
        with pytest.raises(ClockError):
            scheduler.call_later(-1.0, lambda: None)

    def test_fifo_order_for_same_instant(self, scheduler):
        order = []
        scheduler.call_at(10.0, lambda: order.append("a"))
        scheduler.call_at(10.0, lambda: order.append("b"))
        scheduler.call_at(10.0, lambda: order.append("c"))
        scheduler.run_until(10.0)
        assert order == ["a", "b", "c"]

    def test_time_order(self, scheduler):
        order = []
        scheduler.call_at(30.0, lambda: order.append("late"))
        scheduler.call_at(10.0, lambda: order.append("early"))
        scheduler.run_until(100.0)
        assert order == ["early", "late"]

    def test_cancel_prevents_firing(self, scheduler):
        fired = []
        task = scheduler.call_later(10.0, lambda: fired.append(True))
        task.cancel()
        scheduler.run_for(20.0)
        assert fired == []

    def test_periodic_fires_repeatedly(self, scheduler):
        fired = []
        scheduler.call_every(10.0, lambda: fired.append(scheduler.clock.now_ms))
        scheduler.run_for(35.0)
        assert fired == [10.0, 20.0, 30.0]

    def test_periodic_initial_delay(self, scheduler):
        fired = []
        scheduler.call_every(10.0, lambda: fired.append(scheduler.clock.now_ms), initial_delay_ms=3.0)
        scheduler.run_for(25.0)
        assert fired == [3.0, 13.0, 23.0]

    def test_periodic_cancel_stops_series(self, scheduler):
        fired = []
        task = scheduler.call_every(10.0, lambda: fired.append(True))
        scheduler.run_for(25.0)
        task.cancel()
        scheduler.run_for(50.0)
        assert len(fired) == 2

    def test_periodic_zero_period_rejected(self, scheduler):
        with pytest.raises(ClockError):
            scheduler.call_every(0.0, lambda: None)

    def test_callback_scheduling_more_work(self, scheduler):
        fired = []

        def first():
            fired.append("first")
            scheduler.call_later(5.0, lambda: fired.append("second"))

        scheduler.call_later(10.0, first)
        scheduler.run_for(20.0)
        assert fired == ["first", "second"]

    def test_callback_advancing_clock_does_not_break_run(self, scheduler):
        # Callbacks may charge virtual latency synchronously.
        scheduler.call_later(10.0, lambda: scheduler.clock.advance(500.0))
        scheduler.run_for(20.0)
        assert scheduler.clock.now_ms == 510.0

    def test_run_until_past_rejected(self, scheduler):
        scheduler.clock.advance(100.0)
        with pytest.raises(ClockError):
            scheduler.run_until(50.0)

    def test_run_returns_executed_count(self, scheduler):
        scheduler.call_later(1.0, lambda: None)
        scheduler.call_later(2.0, lambda: None)
        assert scheduler.run_for(10.0) == 2

    def test_pending_count(self, scheduler):
        task = scheduler.call_later(10.0, lambda: None)
        scheduler.call_later(20.0, lambda: None)
        assert scheduler.pending_count() == 2
        task.cancel()
        assert scheduler.pending_count() == 1

    def test_next_deadline(self, scheduler):
        assert scheduler.next_deadline_ms() is None
        scheduler.call_later(42.0, lambda: None)
        assert scheduler.next_deadline_ms() == 42.0

    def test_drain_runs_everything(self, scheduler):
        fired = []
        scheduler.call_later(5.0, lambda: fired.append(1))
        scheduler.call_later(500.0, lambda: fired.append(2))
        scheduler.drain()
        assert fired == [1, 2]

    def test_drain_guards_against_periodic_runaway(self, scheduler):
        scheduler.call_every(1.0, lambda: None)
        with pytest.raises(ClockError):
            scheduler.drain(max_tasks=100)

    @given(st.lists(st.floats(min_value=0.1, max_value=1e5), min_size=1, max_size=30))
    def test_tasks_fire_in_nondecreasing_time_order(self, delays):
        scheduler = Scheduler()
        fire_times = []
        for delay in delays:
            scheduler.call_later(delay, lambda: fire_times.append(scheduler.clock.now_ms))
        scheduler.run_until(max(delays) + 1.0)
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)


NON_FINITE = (float("nan"), float("inf"))


def _noop():
    return None


#: Every entry point that takes a virtual time, with a bad value plugged in.
TIME_ENTRY_POINTS = {
    "clock_start": lambda s, v: SimulatedClock(v),
    "advance": lambda s, v: s.clock.advance(v),
    "advance_to": lambda s, v: s.clock.advance_to(v),
    "call_at": lambda s, v: s.call_at(v, _noop),
    "call_later": lambda s, v: s.call_later(v, _noop),
    "call_every_period": lambda s, v: s.call_every(v, _noop),
    "call_every_initial_delay": lambda s, v: s.call_every(
        1.0, _noop, initial_delay_ms=v
    ),
    "run_until": lambda s, v: s.run_until(v),
    "run_for": lambda s, v: s.run_for(v),
}


class TestNonFiniteTimes:
    @pytest.mark.parametrize("value", NON_FINITE, ids=("nan", "inf"))
    @pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
    def test_rejected_and_leaves_the_world_untouched(self, scheduler, entry, value):
        with pytest.raises(ClockError):
            TIME_ENTRY_POINTS[entry](scheduler, value)
        assert scheduler.clock.now_ms == 0.0
        assert scheduler.pending_count() == 0

    def test_a_rejected_nan_cannot_disorder_the_queue(self, scheduler):
        fired = []
        for when in (5.0, float("nan"), 3.0, 1.0, 4.0, 2.0):
            try:
                scheduler.call_at(when, lambda when=when: fired.append(when))
            except ClockError:
                assert when != when
        scheduler.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert scheduler.pending_count() == 0


class _ReferenceScheduler:
    """The event order :class:`Scheduler` must reproduce: a plain list
    scanned for the minimum ``(when_ms, seq)``, re-arming periodic tasks
    with a fresh ``seq`` before their callback runs."""

    def __init__(self) -> None:
        self.clock = SimulatedClock()
        self._entries = []  # [when_ms, seq, handle]
        self._seq = 0

    def call_at(self, when_ms, callback):
        handle = _ReferenceHandle(callback)
        self._push(when_ms, handle)
        return handle

    def call_later(self, delay_ms, callback):
        return self.call_at(self.clock.now_ms + delay_ms, callback)

    def call_every(self, period_ms, callback, *, initial_delay_ms=None):
        delay = period_ms if initial_delay_ms is None else initial_delay_ms
        handle = self.call_later(delay, callback)
        handle.period_ms = period_ms
        return handle

    def pending_count(self):
        return sum(1 for _, _, handle in self._entries if not handle.cancelled)

    def run_until(self, until_ms):
        executed = 0
        while True:
            self._entries = [e for e in self._entries if not e[2].cancelled]
            due = [e for e in self._entries if e[0] <= until_ms]
            if not due:
                break
            entry = min(due, key=lambda e: (e[0], e[1]))
            self._entries.remove(entry)
            when_ms, _, handle = entry
            self.clock.advance_to(max(when_ms, self.clock.now_ms))
            if handle.period_ms is not None:
                self._push(when_ms + handle.period_ms, handle)
            handle.callback()
            executed += 1
        self.clock.advance_to(max(until_ms, self.clock.now_ms))
        return executed

    def run_for(self, delta_ms):
        return self.run_until(self.clock.now_ms + delta_ms)

    def _push(self, when_ms, handle):
        self._entries.append([when_ms, self._seq, handle])
        self._seq += 1


class _ReferenceHandle:
    def __init__(self, callback):
        self.callback = callback
        self.period_ms = None
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


#: Small values, so that many tasks fall due at the same instant and only
#: FIFO tie-breaking decides their order.
_TIMES = st.sampled_from((0.0, 0.5, 1.0, 2.0, 3.0))
_PERIODS = st.sampled_from((0.5, 1.0, 2.0, 3.0))
_ACTIONS = st.one_of(
    st.just(("noop",)),
    st.tuples(st.just("charge"), st.sampled_from((0.0, 0.25, 1.5))),
    st.tuples(st.just("call_at"), _TIMES),
    st.tuples(st.just("call_later"), _TIMES),
    st.tuples(st.just("call_every"), _PERIODS),
    st.just(("cancel_self",)),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
)
_STEPS = st.one_of(
    st.tuples(st.just("call_at"), _TIMES, _ACTIONS),
    st.tuples(st.just("call_later"), _TIMES, _ACTIONS),
    st.tuples(
        st.just("call_every"), _PERIODS, st.one_of(st.none(), _TIMES), _ACTIONS
    ),
    st.tuples(st.just("cancel"), st.integers(0, 50)),
    st.tuples(st.just("run_for"), st.sampled_from((0.0, 0.5, 1.0, 2.5, 4.0))),
)


def _drive(world, steps, actions):
    """Run ``steps`` on ``world``; returns what an observer sees: every
    callback with the clock it read, and after each step the clock and
    the pending count."""
    seen = []
    handles = []
    budget = [60]  # callbacks may create at most this many more tasks

    def spawn(kind, arg, action):
        callback = make_callback(len(handles), action)
        if kind == "call_at":
            handle = world.call_at(world.clock.now_ms + arg, callback)
        elif kind == "call_later":
            handle = world.call_later(arg, callback)
        else:
            period, initial = arg
            handle = world.call_every(period, callback, initial_delay_ms=initial)
        handles.append(handle)

    def make_callback(index, action):
        def callback():
            seen.append(("fire", index, world.clock.now_ms))
            kind = action[0]
            if kind == "charge":
                world.clock.advance(action[1])
            elif kind == "cancel_self":
                handles[index].cancel()
            elif kind == "cancel":
                handles[action[1] % len(handles)].cancel()
            elif kind != "noop" and budget[0] > 0:
                budget[0] -= 1
                nested = actions[(index + len(handles)) % len(actions)]
                arg = (action[1], None) if kind == "call_every" else action[1]
                spawn(kind, arg, nested)

        return callback

    for step in steps:
        kind = step[0]
        if kind in ("call_at", "call_later"):
            spawn(kind, step[1], step[2])
        elif kind == "call_every":
            spawn(kind, (step[1], step[2]), step[3])
        elif kind == "cancel":
            if handles:
                handles[step[1] % len(handles)].cancel()
        else:
            seen.append(("ran", world.run_for(step[1])))
        seen.append(("after", world.clock.now_ms, world.pending_count()))
    seen.append(("ran", world.run_for(10.0)))
    seen.append(("end", world.clock.now_ms, world.pending_count()))
    return seen


class TestSchedulerAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(_STEPS, min_size=1, max_size=25),
        actions=st.lists(_ACTIONS, min_size=1, max_size=6),
    )
    def test_same_callbacks_same_clock_reads_same_pending(self, steps, actions):
        assert _drive(Scheduler(), steps, actions) == _drive(
            _ReferenceScheduler(), steps, actions
        )
