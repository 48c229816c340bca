"""Virtual time for the simulated device and platforms.

Everything latency-bearing in the substrates (GPS fix acquisition, radio
round-trips, WebView polling timers) is expressed against a
:class:`SimulatedClock` so tests and benchmarks are deterministic and fast.
Nothing in the package reads a wall clock: the M-Proxy layer's own Python
overhead is timed from outside, by the benchmarks under ``benchmarks/``.

Time is measured in **milliseconds** as a float, matching the units of the
paper's evaluation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import ClockError

_INF = float("inf")


class SimulatedClock:
    """A monotonically-advancing virtual clock.

    The clock only moves when :meth:`advance` is called (usually indirectly
    through :meth:`Scheduler.run_until` / :meth:`Scheduler.run_for`).
    Every time it accepts must be finite: a NaN compares false with
    everything, so one NaN instant would silently stop all ordering.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        if not 0 <= start_ms < _INF:
            raise ClockError(
                f"clock must start at a finite non-negative time, got {start_ms!r}"
            )
        self._now_ms = float(start_ms)

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def now_s(self) -> float:
        """Current virtual time in seconds."""
        return self._now_ms / 1000.0

    def advance(self, delta_ms: float) -> float:
        """Move time forward by ``delta_ms`` and return the new time."""
        if not 0 <= delta_ms < _INF:
            raise ClockError(
                f"cannot advance clock by {delta_ms!r}; the delta must be "
                "finite and non-negative"
            )
        self._now_ms += delta_ms
        return self._now_ms

    def advance_to(self, when_ms: float) -> float:
        """Move time forward to the absolute instant ``when_ms``."""
        if not self._now_ms <= when_ms < _INF:
            raise ClockError(
                f"cannot move clock from {self._now_ms} to {when_ms!r}; the "
                "instant must be finite and not in the past"
            )
        self._now_ms = float(when_ms)
        return self._now_ms

    def rewind(self, start_ms: float) -> float:
        """Roll the clock back to ``start_ms``, an instant it has already
        reached, and return the virtual time charged since then.

        This is the concurrency runtime's parallel-lane facility: a
        worker shard notes the instant, executes a request (whose
        substrate charges advance this clock synchronously), rewinds, and
        replays the returned charge on the shard's own lane — so K shards
        overlap in virtual time instead of serialising on the shared
        clock.  Tasks scheduled by side effects during the execution keep
        their as-executed instants, which are never before ``start_ms``,
        so causality on the scheduler heap is preserved.  Executions may
        nest; each rewinds to its own start.
        """
        now_ms = self._now_ms
        if not start_ms <= now_ms:
            raise ClockError(
                f"cannot rewind clock from {now_ms} to {start_ms!r}; the "
                "instant must not be after now"
            )
        self._now_ms = start_ms
        return now_ms - start_ms

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimulatedClock(now_ms={self._now_ms:.3f})"


class ScheduledTask:
    """A callback scheduled to run at a virtual instant: the handle
    :meth:`Scheduler.call_at` and its siblings return.

    The scheduler orders its heap by ``(when_ms, seq)`` entries that point
    at the handle, so tasks due at the same instant run in FIFO order — the
    property the platform event loops rely on for deterministic broadcast
    delivery.
    """

    __slots__ = ("callback", "period_ms", "cancelled", "name")

    def __init__(
        self,
        callback: Callable[[], None],
        *,
        period_ms: Optional[float] = None,
        name: str = "",
    ) -> None:
        self.callback = callback
        self.period_ms = period_ms
        self.cancelled = False
        self.name = name

    def cancel(self) -> None:
        """Prevent the task from firing (and from repeating, if periodic)."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ScheduledTask({self.name!r}, period_ms={self.period_ms!r}, "
            f"cancelled={self.cancelled})"
        )


class Scheduler:
    """A deterministic event-driven scheduler over a :class:`SimulatedClock`.

    This is the single event loop shared by the device hardware and every
    platform substrate mounted on that device; sharing one loop is what
    makes cross-component timing (e.g. a GPS fix racing an expiration
    timer) reproducible.
    """

    def __init__(self, clock: Optional[SimulatedClock] = None) -> None:
        self.clock = clock if clock is not None else SimulatedClock()
        #: ``(when_ms, seq, task)`` entries.  ``seq`` is unique, so a
        #: comparison never reaches the task; a cancelled task's entries
        #: stay until they reach the head, where they are dropped.
        self._heap: List[Tuple[float, int, ScheduledTask]] = []
        self._seq = itertools.count()

    def call_at(
        self,
        when_ms: float,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule ``callback`` at absolute virtual time ``when_ms``."""
        now = self.clock.now_ms
        if not now <= when_ms < _INF:
            raise ClockError(
                f"cannot schedule task at {when_ms!r}; it must be finite and "
                f"not before now {now}"
            )
        task = ScheduledTask(callback, name=name)
        heapq.heappush(self._heap, (when_ms, next(self._seq), task))
        return task

    def call_later(
        self,
        delay_ms: float,
        callback: Callable[[], None],
        *,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if not 0 <= delay_ms < _INF:
            raise ClockError(
                f"delay must be finite and non-negative, got {delay_ms!r}"
            )
        return self.call_at(self.clock.now_ms + delay_ms, callback, name=name)

    def call_every(
        self,
        period_ms: float,
        callback: Callable[[], None],
        *,
        initial_delay_ms: Optional[float] = None,
        name: str = "",
    ) -> ScheduledTask:
        """Schedule a periodic callback.

        The returned handle cancels the whole series.  The period applies
        from each firing instant (fixed-rate, not fixed-delay) — matching
        how platform polling timers behave.
        """
        if not 0 < period_ms < _INF:
            raise ClockError(
                f"period must be finite and positive, got {period_ms!r}"
            )
        delay = period_ms if initial_delay_ms is None else initial_delay_ms
        task = self.call_later(delay, callback, name=name)
        task.period_ms = period_ms
        return task

    def pending_count(self) -> int:
        """Number of not-yet-cancelled tasks in the queue."""
        return sum(1 for _, _, task in self._heap if not task.cancelled)

    def next_deadline_ms(self) -> Optional[float]:
        """Virtual time of the earliest pending task, or ``None``."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def run_until(self, until_ms: float) -> int:
        """Run all tasks due up to (and including) ``until_ms``.

        Advances the clock task-by-task to each firing instant, then to
        ``until_ms``.  Returns the number of callbacks executed.  Callbacks
        may schedule further tasks; those run too if they fall in range.
        """
        clock = self.clock
        if not clock.now_ms <= until_ms < _INF:
            raise ClockError(
                f"cannot run until {until_ms!r}, now is {clock.now_ms}"
            )
        heap = self._heap
        executed = 0
        while heap:
            when_ms, _, task = heap[0]
            if task.cancelled:
                heapq.heappop(heap)
                continue
            if when_ms > until_ms:
                break
            # Callbacks may advance the clock themselves (synchronous
            # native-latency charges); never move it backwards.  This loop
            # runs once per event, so it writes the clock's field directly.
            if when_ms >= clock._now_ms:
                clock._now_ms = float(when_ms)
            period_ms = task.period_ms
            if period_ms is None:
                heapq.heappop(heap)
            else:
                # Re-arm before running so the callback can cancel itself.
                heapq.heapreplace(heap, (when_ms + period_ms, next(self._seq), task))
            task.callback()
            executed += 1
        if until_ms >= clock._now_ms:
            clock._now_ms = float(until_ms)
        return executed

    def run_for(self, delta_ms: float) -> int:
        """Run all tasks due within the next ``delta_ms`` of virtual time."""
        return self.run_until(self.clock.now_ms + delta_ms)
