"""The cooperative agent-task scheduler (virtual time, seeded).

N agent workloads run as plain Python generators multiplexed over the one
:class:`~repro.util.clock.Scheduler` the device substrate, resilience
plane and observability plane already share.  A task yields:

* ``None`` — give up the step; the task re-queues at the same instant and
  runs again after every other currently-ready task of equal priority;
* a number — sleep that many virtual milliseconds;
* a :class:`~repro.runtime.futures.Future` — park until it settles; the
  task resumes with the resolved value, or the failure is thrown into the
  generator (so tasks handle uniform errors with ordinary ``try``).

Determinism contract: ready tasks step in (priority desc, wake order)
sequence — priority first, FIFO tie-breaking — and the only randomness
available to workloads is :attr:`CooperativeScheduler.rng`, seeded at
construction.  Two schedulers built with the same seed and driven with
the same workload therefore interleave *identically*, down to the byte,
which the property suite asserts on trace exports.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.errors import ConfigurationError, ProxyError
from repro.runtime.futures import Future
from repro.util.clock import Scheduler

#: Task lifecycle states.
READY = "ready"
RUNNING = "running"
SLEEPING = "sleeping"
WAITING = "waiting"
DONE = "done"
FAILED = "failed"

#: States a task can be woken from.
_PARKED = (SLEEPING, WAITING)


class AgentTask:
    """One cooperatively-scheduled workload."""

    __slots__ = (
        "name", "priority", "seq", "state", "result", "error",
        "_generator", "_send_value", "_throw_error", "steps",
    )

    def __init__(
        self,
        name: str,
        generator: Generator[Any, Any, Any],
        *,
        priority: int = 0,
        seq: int = 0,
    ) -> None:
        self.name = name
        self.priority = priority
        self.seq = seq
        self.state = READY
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self.steps = 0
        self._generator = generator
        self._send_value: Any = None
        self._throw_error: Optional[ProxyError] = None

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AgentTask({self.name!r}, {self.state})"


class CooperativeScheduler:
    """Priority + FIFO cooperative multiplexer over the virtual clock.

    Parameters
    ----------
    base:
        The device world's event scheduler (and its clock) — tasks ride
        the same heap as GPS fixes and SMS deliveries, so cross-layer
        timing stays reproducible.
    seed:
        Seeds :attr:`rng`, the only RNG workloads may draw from.
    observability:
        Optional hub; task lifecycle counters land in its metrics
        registry as ``runtime.tasks_*`` series (labelled
        ``source=<name>``, matching the dispatcher's convention).  When
        the hub carries a flight recorder, a task crash triggers a dump
        capturing the moments before the failure.
    """

    def __init__(
        self,
        base: Scheduler,
        *,
        seed: int = 0,
        observability=None,
        name: str = "coop",
    ) -> None:
        self._base = base
        self.name = name
        self.rng = random.Random(f"runtime:{seed}")
        self.tasks: List[AgentTask] = []
        self._ready: List[Tuple[int, int, AgentTask]] = []
        self._spawn_seq = itertools.count()
        self._wake_seq = itertools.count()
        #: Tasks that only the caller can move on: DONE, FAILED or WAITING.
        self._settled = 0
        self._drain_armed = False
        self._drain_hooks: List[Callable[[], None]] = []
        self._obs = observability
        if observability is not None:
            metrics = observability.metrics
        else:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self._spawned = metrics.counter("runtime.tasks_spawned", source=name)
        self._completed = metrics.counter("runtime.tasks_completed", source=name)
        self._failed = metrics.counter("runtime.tasks_failed", source=name)
        self._steps = metrics.counter("runtime.task_steps", source=name)

    @property
    def clock(self):
        return self._base.clock

    @property
    def base(self) -> Scheduler:
        return self._base

    # -- spawning ------------------------------------------------------------

    def spawn(
        self,
        name: str,
        generator: Generator[Any, Any, Any],
        *,
        priority: int = 0,
    ) -> AgentTask:
        """Register a workload; it takes its first step at the current
        instant, ordered against other ready tasks by (priority desc,
        spawn order)."""
        task = AgentTask(
            name, generator, priority=priority, seq=next(self._spawn_seq)
        )
        self.tasks.append(task)
        self._spawned.inc()
        self._make_ready(task)
        return task

    def add_drain_hook(self, hook: Callable[[], None]) -> None:
        """Register a callback to run at the end of every drain pass.

        Drain passes are the runtime's natural control instants — every
        ready task has stepped and virtual time is about to move — which
        is where feedback controllers (the admission plane's shard
        autoscaler) sample their signals.  Hooks run in registration
        order, after the task steps and before the observability tick,
        so anything a hook changes lands in the same tick's samples.
        """
        self._drain_hooks.append(hook)

    # -- driving -------------------------------------------------------------

    def run_for(self, delta_ms: float) -> int:
        """Advance the shared world; returns callbacks executed."""
        return self._base.run_for(delta_ms)

    def run_until(self, until_ms: float) -> int:
        return self._base.run_until(until_ms)

    # -- introspection -------------------------------------------------------

    def failed_tasks(self) -> List[AgentTask]:
        return [task for task in self.tasks if task.state == FAILED]

    def unfinished_tasks(self) -> List[AgentTask]:
        return [task for task in self.tasks if not task.finished]

    @property
    def all_finished(self) -> bool:
        return all(task.finished for task in self.tasks)

    @property
    def settled_count(self) -> int:
        """Tasks that are done, failed, or parked on a future — the ones
        no scheduler instant can move.  Kept as state changes, so the
        runtime's quiescence check costs O(1) instead of a scan."""
        return self._settled

    # -- internals -----------------------------------------------------------

    def _make_ready(self, task: AgentTask) -> None:
        if task.state == WAITING:
            self._settled -= 1
        task.state = READY
        heapq.heappush(self._ready, (-task.priority, next(self._wake_seq), task))
        if not self._drain_armed:
            self._drain_armed = True
            self._base.call_at(
                self.clock.now_ms, self._drain, name=f"{self.name}.drain"
            )

    def _wake(self, task: AgentTask) -> None:
        if task.state in _PARKED:
            self._make_ready(task)

    def _drain(self) -> None:
        self._drain_armed = False
        while self._ready:
            _, _, task = heapq.heappop(self._ready)
            if task.state != READY:
                continue  # woken twice, or already stepped
            self._step(task)
        for hook in self._drain_hooks:
            hook()
        if self._obs is not None:
            self._obs.tick()

    def _step(self, task: AgentTask) -> None:
        task.state = RUNNING
        task.steps += 1
        self._steps.inc()
        throw, task._throw_error = task._throw_error, None
        send, task._send_value = task._send_value, None
        try:
            if throw is not None:
                yielded = task._generator.throw(throw)
            else:
                yielded = task._generator.send(send)
        except StopIteration as stop:
            task.state = DONE
            self._settled += 1
            task.result = stop.value
            self._completed.inc()
        except Exception as exc:  # task isolation: one bad agent ≠ dead fleet
            task.state = FAILED
            self._settled += 1
            task.error = exc
            self._failed.inc()
            if self._obs is not None and self._obs.flight is not None:
                flight = self._obs.flight
                flight.note(
                    "task.crashed",
                    task=task.name,
                    scheduler=self.name,
                    error=str(exc),
                    steps=task.steps,
                )
                flight.trigger(
                    "task.crashed",
                    task=task.name,
                    scheduler=self.name,
                    error=str(exc),
                )
        else:
            self._park(task, yielded)

    def _park(self, task: AgentTask, yielded: Any) -> None:
        if yielded is None:
            self._make_ready(task)
            return
        if isinstance(yielded, Future):
            task.state = WAITING
            self._settled += 1
            yielded.add_done_callback(self._resume_from(task))
            return
        if isinstance(yielded, (int, float)) and not isinstance(yielded, bool):
            if not 0 <= yielded < math.inf:
                self._fail_bad_yield(task, yielded)
                return
            task.state = SLEEPING
            self._base.call_later(
                float(yielded),
                lambda: self._wake(task),
                name=f"{self.name}.sleep:{task.name}",
            )
            return
        self._fail_bad_yield(task, yielded)

    def _resume_from(self, task: AgentTask) -> Callable[[Future], None]:
        def on_done(future: Future) -> None:
            if future.error is not None:
                task._throw_error = future.error
            else:
                task._send_value = future.value
            self._wake(task)

        return on_done

    def _fail_bad_yield(self, task: AgentTask, yielded: Any) -> None:
        task.state = FAILED
        self._settled += 1
        task.error = ConfigurationError(
            f"task {task.name!r} yielded {yielded!r}; expected None, a "
            "finite non-negative delay in ms, or a Future"
        )
        self._failed.inc()
