"""Sharded dispatch in front of the M-Proxy layer.

One :class:`Dispatcher` owns K worker shards for one platform.  Each
shard is a serial lane with a bounded FIFO queue; a submitted request is

1. **coalesced** — if it carries a coalesce key matching an in-flight
   idempotent read, it attaches to that request's future and never
   touches a queue;
2. **admitted, throttled, absorbed or shed** — admission is decided
   synchronously at ``submit()``.  With an admission policy installed
   (:class:`~repro.runtime.admission.AdmissionConfig`), the tenant's
   token bucket is charged first (over budget →
   :class:`~repro.errors.ProxyThrottledError` 1013 with a
   ``retry_after_ms`` hint); a full shard queue then tries, in order,
   to **evict** a strictly lower-priority queued request (priority-
   aware shedding; the victim moves to the overflow buffer while that
   has room), to **absorb** the request into the shared overflow
   buffer (queue-based load leveling — it drains into whichever lane
   idles first), and only then **sheds** with
   :class:`~repro.errors.ProxyOverloadError` 1012.  Both errors carry
   structured context (platform, shard, depth, bound, priority class,
   reason) mirrored into the ``queue.shed`` / ``queue.throttled`` span
   events, and every submission lands in exactly one
   ``runtime.outcome`` bucket;
3. **executed on the shard's lane** — the shard runs the request's thunk
   on the shared clock, then rolls the clock back to the lane's start
   with :meth:`SimulatedClock.rewind`, so the substrate's synchronous
   virtual-time charge lands on the shard's private ``busy_until``
   horizon instead of serialising the shared clock.
   K shards therefore overlap in virtual time: makespan ≈ total work / K,
   which is exactly what ``benchmarks/bench_concurrency.py`` measures.

The live shard count is no longer fixed: :meth:`resize` grows or
shrinks the lane set (the autoscaler's actuator).  Shrinking reflows
queued work onto the surviving lanes — admitted work is never dropped
by a resize.

Span layer: with tracing enabled each executed request records a
``queue:<operation>`` span (attributes: shard, queue wait) as the parent
of the proxy's own ``dispatch → resilience → binding`` tree.  The span's
virtual stamps are the *lane* times — two shards' spans genuinely
overlap in a trace export.

Determinism: shard selection is stable CRC32 key hashing (or
least-loaded with lowest-index tie-breaking), queues are FIFO, eviction
and overflow ordering break ties by submission sequence, and every
completion is delivered through the shared scheduler heap with FIFO
sequence numbers.  No wall clock, no unseeded randomness.
"""

from __future__ import annotations

import collections
import itertools
import zlib
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, ProxyError, ProxyOverloadError
from repro.runtime.admission import (
    AdmissionConfig,
    AdmissionController,
    DEFAULT_TENANT,
    OverflowBuffer,
    PRIORITY_NORMAL,
    classify_operation,
    priority_name,
)
from repro.runtime.futures import Future
from repro.util.clock import Scheduler

#: Every submission resolves to exactly one of these outcomes (the
#: unified accounting the ``runtime.outcome`` counter is labelled by).
OUTCOMES = ("admitted", "coalesced", "throttled", "absorbed", "shed")


class _Request:
    """One admitted unit of work."""

    __slots__ = (
        "seq", "operation", "thunk", "future", "attached", "coalesce_key",
        "tracer", "submit_ms", "start_ms", "charge_ms", "shard_index",
        "priority", "tenant",
    )

    def __init__(
        self,
        seq: int,
        operation: str,
        thunk: Callable[[], Any],
        *,
        coalesce_key: Optional[str],
        tracer,
        priority: int = PRIORITY_NORMAL,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        self.seq = seq
        self.operation = operation
        self.thunk = thunk
        self.future = Future()
        self.attached: List[Future] = []
        self.coalesce_key = coalesce_key
        self.tracer = tracer
        self.submit_ms = 0.0
        self.start_ms = 0.0
        self.charge_ms = 0.0
        self.shard_index = -1
        self.priority = priority
        self.tenant = tenant


class _Shard:
    """One serial worker lane."""

    __slots__ = ("index", "queue", "busy_until_ms", "pump_armed", "executed")

    def __init__(self, index: int) -> None:
        self.index = index
        self.queue: Deque[_Request] = collections.deque()
        self.busy_until_ms = 0.0
        self.pump_armed = False
        self.executed = 0


class Dispatcher:
    """Bounded, sharded, coalescing dispatch for one platform.

    Parameters
    ----------
    scheduler:
        The shared virtual-time scheduler (same one the substrate and
        resilience plane use).
    platform:
        Label stamped on metrics and spans (``android``/``s60``/…).
    shards:
        Worker lane count (the *initial* count when an autoscaler is
        attached; see :meth:`resize`).
    queue_depth:
        Per-shard bounded queue length; submissions beyond it go
        through the admission ladder (evict / absorb / shed).
    observability:
        Hub for the dispatcher's own ``runtime.*`` metrics (labelled
        ``source=<platform>``).  Per-request spans go to the
        *submitter's* tracer (pass ``tracer=`` to :meth:`submit`) so
        they join the proxy's span tree.  When the hub carries a
        time-series sampler / flight recorder, the dispatcher ticks the
        sampler at every scheduling point (submit, execution start,
        settle) and triggers a flight dump on sheds.
    admission:
        Optional :class:`~repro.runtime.admission.AdmissionConfig`
        enabling throttling, priority shedding and load leveling.  The
        default ``None`` keeps the PR-4 static-queue behaviour, and the
        submit fast path pays one ``None`` check.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        platform: str = "any",
        shards: int = 1,
        queue_depth: int = 32,
        observability=None,
        admission: Optional[AdmissionConfig] = None,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {queue_depth}")
        self._scheduler = scheduler
        self._clock = scheduler.clock
        self.platform = platform
        self.queue_depth = queue_depth
        self._shards = [_Shard(index) for index in range(shards)]
        self._inflight: Dict[str, _Request] = {}
        #: Requests executed on a lane whose ``_settle`` has not run yet.
        #: The ``runtime.inflight`` gauge counts them too, but every
        #: dispatcher of one platform on one registry shares that gauge.
        self.unsettled = 0
        self._seq = itertools.count()
        self._rr = itertools.count()
        self._obs = observability
        if observability is not None:
            metrics = observability.metrics
        else:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self.metrics = metrics
        label = dict(source=platform)
        self._submitted = metrics.counter("runtime.submitted", **label)
        self._completed = metrics.counter("runtime.completed", **label)
        self._failed = metrics.counter("runtime.failed", **label)
        self._shed = metrics.counter("runtime.shed", **label)
        self._coalesced = metrics.counter("runtime.coalesced", **label)
        self._outcomes = {
            outcome: metrics.counter("runtime.outcome", outcome=outcome, **label)
            for outcome in OUTCOMES
        }
        self._queue_wait = metrics.histogram("runtime.queue_wait_ms", **label)
        self._service = metrics.histogram("runtime.service_ms", **label)
        self._inflight_gauge = metrics.gauge("runtime.inflight", **label)
        self._depth_gauges = [
            metrics.gauge("runtime.queue_depth", shard=str(index), **label)
            for index in range(shards)
        ]
        self.admission_config = admission
        if admission is not None:
            self._admission: Optional[AdmissionController] = AdmissionController(
                platform=platform,
                clock=self._clock,
                metrics=metrics,
                bucket=admission.bucket,
                observability=observability,
            )
            self._overflow: Optional[OverflowBuffer] = (
                OverflowBuffer(admission.overflow_capacity)
                if admission.overflow_capacity > 0
                else None
            )
            self._buffer_gauge = metrics.gauge("admission.buffer_depth", **label)
        else:
            self._admission = None
            self._overflow = None
            self._buffer_gauge = None

    def _tick(self) -> None:
        """Sample tracked time series at this scheduling point (no-op
        without an installed sampler)."""
        if self._obs is not None:
            self._obs.tick()

    # -- introspection -------------------------------------------------------

    @property
    def shards(self) -> int:
        return len(self._shards)

    @property
    def admission(self) -> Optional[AdmissionController]:
        """The attached admission controller (``None`` when disabled)."""
        return self._admission

    @property
    def overflow(self) -> Optional[OverflowBuffer]:
        """The shared overflow buffer (``None`` when leveling is off)."""
        return self._overflow

    @property
    def idle(self) -> bool:
        """No queued or buffered work, every lane's horizon passed and
        every executed request settled.

        A lane's horizon alone is not enough: a scheduler callback may
        charge the shared clock past ``busy_until_ms`` before that
        request's settle callback runs."""
        if self.unsettled or self._overflow:
            return False
        return self.next_event_ms() is None

    def next_event_ms(self) -> Optional[float]:
        """Earliest horizon of a lane still queued or busy, or ``None``
        when every lane is idle (drain aid)."""
        now = self._clock.now_ms
        earliest = None
        for shard in self._shards:
            horizon = shard.busy_until_ms
            if (shard.queue or horizon > now) and (
                earliest is None or horizon < earliest
            ):
                earliest = horizon
        return earliest

    def executed_per_shard(self) -> List[int]:
        return [shard.executed for shard in self._shards]

    def lane_load(self) -> Tuple[int, int]:
        """Queued requests and busy lanes (queued or mid-execution), in
        one pass over the lanes: the autoscaler's live signal."""
        now = self._clock.now_ms
        queued = busy = 0
        for shard in self._shards:
            if shard.queue:
                queued += len(shard.queue)
                busy += 1
            elif shard.busy_until_ms > now:
                busy += 1
        return queued, busy

    @property
    def shed_count(self) -> int:
        return self._shed.value

    @property
    def throttled_count(self) -> int:
        return self._outcomes["throttled"].value

    @property
    def absorbed_count(self) -> int:
        return self._outcomes["absorbed"].value

    @property
    def coalesced_count(self) -> int:
        return self._coalesced.value

    @property
    def completed_count(self) -> int:
        return self._completed.value

    def outcome_counts(self) -> Dict[str, int]:
        """Every submission outcome under the unified accounting."""
        return {name: counter.value for name, counter in self._outcomes.items()}

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        operation: str,
        thunk: Callable[[], Any],
        *,
        key: Optional[str] = None,
        coalesce_key: Optional[str] = None,
        tracer=None,
        priority: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Future:
        """Queue one proxy invocation; returns its future.

        ``key`` pins the request to a stable shard (CRC32 hash) — use an
        agent or session id for per-source FIFO ordering.  Without a key
        the least-loaded shard wins (lowest index breaks ties).
        ``coalesce_key`` marks the request as an idempotent read that may
        share an in-flight execution with identical keys.  ``priority``
        is the request's admission class (defaults to the class of
        ``operation`` under admission, NORMAL without it);
        ``tenant`` names the token-bucket account to charge (the agent
        id, in the fleet).
        """
        self._submitted.inc()
        if priority is None:
            priority = (
                classify_operation(operation)
                if self.admission_config is not None
                else PRIORITY_NORMAL
            )
        if tenant is None:
            tenant = DEFAULT_TENANT
        if coalesce_key is not None:
            primary = self._inflight.get(coalesce_key)
            if primary is not None:
                self._coalesced.inc()
                self._outcomes["coalesced"].inc()
                follower = Future()
                primary.attached.append(follower)
                self._tick()
                return follower
        if self._admission is not None:
            throttle = self._admission.admit(tenant, operation, priority)
            if throttle is not None:
                self._outcomes["throttled"].inc()
                if tracer is not None and tracer.enabled:
                    with tracer.span(
                        f"queue:{operation}",
                        platform=self.platform,
                        outcome="throttled",
                        priority=priority_name(priority),
                        tenant=tenant,
                    ) as span:
                        tracer.event("queue.throttled", **throttle.context)
                        span.mark_error(throttle)
                self._tick()
                return Future.failed(throttle)
        request = _Request(
            next(self._seq),
            operation,
            thunk,
            coalesce_key=coalesce_key,
            tracer=tracer,
            priority=priority,
            tenant=tenant,
        )
        request.submit_ms = self._clock.now_ms
        shard = self._select_shard(key)
        if len(shard.queue) >= self.queue_depth:
            admitted = self._admit_over_capacity(request, shard)
            if not admitted:
                self._shed_request(request, shard=shard, reason="queue_full")
            self._tick()
            return request.future
        self._enqueue(request, shard)
        self._tick()
        return request.future

    # -- internals -----------------------------------------------------------

    def _enqueue(self, request: _Request, shard: _Shard) -> None:
        request.shard_index = shard.index
        shard.queue.append(request)
        self._depth_gauges[shard.index].set(len(shard.queue))
        self._outcomes["admitted"].inc()
        if request.coalesce_key is not None:
            self._inflight[request.coalesce_key] = request
        self._pump(shard)

    def _admit_over_capacity(self, request: _Request, shard: _Shard) -> bool:
        """The admission ladder for a full shard queue: evict a lower-
        priority occupant, else absorb into the overflow buffer (which
        may itself evict).  Returns False when the request must shed.

        An evicted occupant was admitted, so it moves to the overflow
        buffer while that has room and sheds only when it has none."""
        if self._admission is None and self._overflow is None:
            return False
        victim = self._eviction_victim(shard, request.priority)
        if victim is not None:
            shard.queue.remove(victim)
            if not self._offer_overflow(victim):
                self._shed_request(
                    victim, shard=shard, reason="evicted", outcome=None
                )
            request.shard_index = shard.index
            shard.queue.append(request)
            self._depth_gauges[shard.index].set(len(shard.queue))
            self._outcomes["admitted"].inc()
            if request.coalesce_key is not None:
                self._inflight[request.coalesce_key] = request
            self._pump(shard)
            return True
        if self._offer_overflow(request):
            self._outcomes["absorbed"].inc()
            self.metrics.counter(
                "admission.absorbed", source=self.platform
            ).inc()
            if request.coalesce_key is not None:
                self._inflight[request.coalesce_key] = request
            return True
        return False

    def _offer_overflow(self, request: _Request) -> bool:
        """Buffer ``request`` if the overflow buffer takes it; a lower-
        class occupant it displaces sheds."""
        if self._overflow is None:
            return False
        accepted, displaced = self._overflow.offer(request)
        if accepted:
            if displaced is not None:
                self._shed_request(
                    displaced, shard=None, reason="evicted", outcome=None
                )
            self._buffer_gauge.set(len(self._overflow))
        return accepted

    @staticmethod
    def _eviction_victim(shard: _Shard, priority: int) -> Optional[_Request]:
        """The queued request to evict for an incoming ``priority``:
        the strictly lower-priority occupant of the lowest class,
        newest first (older work keeps its FIFO claim longest)."""
        candidates = [
            queued for queued in shard.queue if queued.priority < priority
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda queued: (queued.priority, -queued.seq))

    def _shed_request(
        self,
        request: _Request,
        *,
        shard: Optional[_Shard],
        reason: str,
        outcome: Optional[str] = "shed",
    ) -> None:
        """Fail ``request`` (and every coalesced follower) with an
        enriched 1012.  ``outcome`` is the submission outcome to record
        — ``None`` for evicted victims, whose submissions were already
        counted as admitted/absorbed."""
        depth = len(shard.queue) if shard is not None else (
            len(self._overflow) if self._overflow is not None else 0
        )
        context = {
            "platform": self.platform,
            "shard": shard.index if shard is not None else -1,
            "depth": depth,
            "bound": self.queue_depth,
            "priority": priority_name(request.priority),
            "operation": request.operation,
            "reason": reason,
        }
        error = ProxyOverloadError(
            f"{request.operation} shed ({reason}): "
            f"{'shard ' + str(shard.index) if shard is not None else 'overflow'}"
            f"/{self.platform} queue full ({self.queue_depth})",
            context=context,
        )
        if request.coalesce_key is not None:
            if self._inflight.get(request.coalesce_key) is request:
                del self._inflight[request.coalesce_key]
        futures = [request.future] + request.attached
        # Unified accounting: every future failed by a shed counts, so
        # coalesced joins shed after attachment are no longer invisible.
        self._shed.inc(len(futures))
        self.metrics.counter(
            "admission.shed",
            source=self.platform,
            priority=priority_name(request.priority),
            reason=reason,
        ).inc(len(futures))
        if outcome is not None:
            self._outcomes[outcome].inc()
        tracer = request.tracer
        if tracer is not None and tracer.enabled:
            with tracer.span(
                f"queue:{request.operation}",
                platform=self.platform,
                shard=context["shard"],
                outcome="shed",
                priority=context["priority"],
                tenant=request.tenant,
            ) as span:
                tracer.event("queue.shed", **context)
                span.mark_error(error)
        if self._obs is not None and self._obs.flight is not None:
            flight = self._obs.flight
            flight.note("queue.shed", **context)
            flight.trigger(
                "queue.shed",
                operation=request.operation,
                platform=self.platform,
                shard=context["shard"],
                cause=reason,
            )
        if self._admission is not None:
            self._admission.record_rejection(
                "shed", operation=request.operation, reason=reason
            )
        for future in futures:
            future.fail(error)

    def _select_shard(self, key: Optional[str]) -> _Shard:
        if len(self._shards) == 1:
            return self._shards[0]
        if key is not None:
            index = zlib.crc32(key.encode("utf-8")) % len(self._shards)
            return self._shards[index]
        now = self._clock.now_ms

        def load(shard: _Shard) -> tuple:
            busy = 1 if shard.busy_until_ms > now else 0
            return (len(shard.queue) + busy, shard.index)

        return min(self._shards, key=load)

    # -- resizing ------------------------------------------------------------

    def resize(self, new_count: int) -> None:
        """Grow or shrink the live lane set (the autoscaler's actuator).

        Growing appends idle lanes and immediately drains the overflow
        buffer into them.  Shrinking removes the highest-index lanes and
        reflows their queued work onto survivors (spilling into the
        overflow buffer unbounded if need be) — admitted work is never
        dropped by a resize.  In-flight executions on removed lanes
        settle normally; only new placement stops.
        """
        if new_count < 1:
            raise ConfigurationError(f"shards must be >= 1, got {new_count}")
        current = len(self._shards)
        if new_count == current:
            return
        if new_count > current:
            label = dict(source=self.platform)
            for index in range(current, new_count):
                self._shards.append(_Shard(index))
                if index >= len(self._depth_gauges):
                    self._depth_gauges.append(
                        self.metrics.gauge(
                            "runtime.queue_depth", shard=str(index), **label
                        )
                    )
                self._depth_gauges[index].set(0)
            self._drain_overflow()
            return
        removed = self._shards[new_count:]
        self._shards = self._shards[:new_count]
        pending: List[_Request] = []
        for shard in removed:
            pending.extend(shard.queue)
            shard.queue.clear()
            self._depth_gauges[shard.index].set(0)
        pending.sort(key=lambda request: request.seq)
        for request in pending:
            target = min(
                self._shards,
                key=lambda shard: (len(shard.queue), shard.index),
            )
            if len(target.queue) < self.queue_depth:
                request.shard_index = target.index
                target.queue.append(request)
                self._depth_gauges[target.index].set(len(target.queue))
                self._pump(target)
            else:
                # Never drop admitted work on a shrink: the overflow
                # buffer absorbs the spill beyond its normal bound.
                if self._overflow is None:
                    self._overflow = OverflowBuffer(0)
                    self._buffer_gauge = self.metrics.gauge(
                        "admission.buffer_depth", source=self.platform
                    )
                self._overflow.offer(request, force=True)
                if self._buffer_gauge is not None:
                    self._buffer_gauge.set(len(self._overflow))

    def _drain_overflow(self) -> None:
        """Level buffered work onto any lane with queue space."""
        if self._overflow is None:
            return
        while len(self._overflow):
            target = min(
                self._shards,
                key=lambda shard: (len(shard.queue), shard.index),
            )
            if len(target.queue) >= self.queue_depth:
                break
            request = self._overflow.take()
            request.shard_index = target.index
            target.queue.append(request)
            self._depth_gauges[target.index].set(len(target.queue))
            self.metrics.counter(
                "admission.leveled", source=self.platform
            ).inc()
            self._pump(target)
        if self._buffer_gauge is not None:
            self._buffer_gauge.set(len(self._overflow))

    # -- execution -----------------------------------------------------------

    def _pump(self, shard: _Shard) -> None:
        """Arm the shard's next execution at its lane horizon."""
        if shard.pump_armed or not shard.queue:
            return
        shard.pump_armed = True
        at = max(self._clock.now_ms, shard.busy_until_ms)
        self._scheduler.call_at(
            at,
            lambda: self._run_head(shard),
            name=f"dispatch.{self.platform}.shard{shard.index}",
        )

    def _run_head(self, shard: _Shard) -> None:
        shard.pump_armed = False
        if not shard.queue:
            return  # emptied by a shrink reflow between pump and fire
        request = shard.queue.popleft()
        if self._overflow is not None and len(self._overflow):
            # Load leveling: the freed slot pulls buffered work onto
            # whichever lane idles first.
            pulled = self._overflow.take()
            pulled.shard_index = shard.index
            shard.queue.append(pulled)
            self.metrics.counter(
                "admission.leveled", source=self.platform
            ).inc()
            self._buffer_gauge.set(len(self._overflow))
        self._depth_gauges[shard.index].set(len(shard.queue))
        self._inflight_gauge.add(1)
        self.unsettled += 1
        start = self._clock.now_ms
        request.start_ms = start
        wait_ms = start - request.submit_ms
        self._queue_wait.observe(wait_ms)
        result: Any = None
        error: Optional[ProxyError] = None
        tracer = request.tracer
        # The queue span closes inside the charged interval; the rewind
        # runs last, also for an error that is not a ProxyError.
        try:
            if tracer is not None and tracer.enabled:
                with tracer.span(
                    f"queue:{request.operation}",
                    platform=self.platform,
                    shard=shard.index,
                    wait_ms=wait_ms,
                    tenant=request.tenant,
                ):
                    result = request.thunk()
            else:
                result = request.thunk()
        except ProxyError as exc:
            error = exc
        finally:
            charge_ms = self._clock.rewind(start)
        request.charge_ms = charge_ms
        self._service.observe(charge_ms)
        shard.busy_until_ms = start + charge_ms
        shard.executed += 1
        self._scheduler.call_at(
            shard.busy_until_ms,
            lambda: self._settle(request, result, error),
            name=f"dispatch.{self.platform}.done{request.seq}",
        )
        self._pump(shard)
        # A drain tick: the queue-depth gauge just dropped, so sample it
        # here too — not only at submit/settle — or bursts that drain
        # between submissions would be invisible in the series.
        self._tick()

    def _settle(
        self, request: _Request, result: Any, error: Optional[ProxyError]
    ) -> None:
        if (
            request.coalesce_key is not None
            and self._inflight.get(request.coalesce_key) is request
        ):
            del self._inflight[request.coalesce_key]
        futures = [request.future] + request.attached
        self._inflight_gauge.add(-1)
        self.unsettled -= 1
        if error is not None:
            self._failed.inc(len(futures))
            for future in futures:
                future.fail(error)
        else:
            self._completed.inc(len(futures))
            for future in futures:
                future.resolve(result)
        self._tick()
