"""Machine-speed reference: a fixed pure-Python kernel and a clock that
counts time in *reference units*.

The shared host this benchmark runs on changes speed from one second to
the next (all interpreter work slows by up to about 2x, in spells of a
second or so, with no steal time reported).  :class:`ReferenceClock`
therefore samples the kernel every :data:`EVERY_S` of wall time from an
interval timer and advances at ``NOMINAL_S / last kernel time`` times
the wall clock: it reads the time the work would have taken on a
machine where the kernel takes :data:`NOMINAL_S`.  The samples land
inside long rounds as well as between short ones, and the time spent
sampling is not counted.

The kernel has two halves, because slow spells do not slow all work
alike: work that allocates and touches fresh memory slows more than work
that stays in the cache.  Over 210 two-second windows of this host, with
spells up to 2x, the allocating half alone over-corrected the Figure-10,
fleet and scenario work in slow windows by 14–19%, the arithmetic half
alone under-corrected it by 13–18%, and their sum stayed within 7%.

The kernel uses no ``repro`` code, so a change to the program cannot
move it.  The garbage collector is off while it runs: its allocations
would otherwise trigger collections that scan the program's heap, and
the kernel would slow as the program under test grows.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List

#: Kernel time the reported numbers are scaled to (this kernel's median
#: on the machine the benchmark was defined on, when it ran at full speed).
NOMINAL_S = 3.3e-3
#: Wall seconds between kernel samples of a running clock.
EVERY_S = 0.1


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: str, value: int, nxt: "_Node") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def _allocating() -> int:
    table = {}
    head = None
    for index in range(3_000):
        head = _Node(f"k{index % 512}", index, head)
        table[head.key] = table.get(head.key, 0) + head.value
    total = 0
    while head is not None:
        total += table[head.key] & 7
        head = head.next
    return total


def _arithmetic() -> int:
    table = {index: index * 7 for index in range(64)}
    total = 0
    for index in range(20_000):
        total = (total * 31 + table[index & 63]) & 0xFFFF
    return total


def _kernel() -> int:
    return _allocating() + _arithmetic()


def sample() -> float:
    """Seconds one kernel run takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Seconds in reference units since the clock was made.

    :meth:`now` is safe to call from the code the timer interrupts: the
    clock's whole state is one tuple, replaced in a single assignment.
    """

    def __init__(self) -> None:
        #: Every kernel sample taken, in seconds.
        self.samples: List[float] = [sample()]
        # (reference seconds at the mark, wall time of the mark, scale)
        self._mark = (0.0, time.perf_counter(), NOMINAL_S / self.samples[0])

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        reference_s, wall_s, scale = self._mark
        paused = time.perf_counter()
        kernel_s = sample()
        self.samples.append(kernel_s)
        self._mark = (
            reference_s + (paused - wall_s) * scale,
            time.perf_counter(),
            NOMINAL_S / kernel_s,
        )

    def now(self) -> float:
        reference_s, wall_s, scale = self._mark
        return reference_s + (time.perf_counter() - wall_s) * scale

    def median_sample(self) -> float:
        return statistics.median(self.samples)
