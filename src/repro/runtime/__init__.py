"""The deterministic concurrency runtime.

The paper evaluates one app invoking one proxy at a time; this package is
what lets *many* agents drive *many* proxies concurrently on the shared
virtual-time substrate without giving up reproducibility:

* :class:`~repro.runtime.scheduler.CooperativeScheduler` — N agent
  workloads as cooperative tasks, priority + FIFO tie-breaking, seeded;
* :class:`~repro.runtime.dispatcher.Dispatcher` — per-platform worker
  shards with bounded queues, load-shedding admission control and
  in-flight request coalescing, in front of ``MProxy``;
* :mod:`~repro.runtime.coalesce` — staleness-window location fix reuse;
* :class:`ConcurrencyRuntime` — the bundle the workforce fleet and the
  benchmarks actually use.

Determinism contract (see ``docs/CONCURRENCY.md``): given the same seed
and workload, two runs produce byte-identical trace exports.  Everything
is single-threaded; concurrency is *modelled* — shard lanes overlap in
virtual time via :meth:`SimulatedClock.capture_charge` — never raced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.obs import Observability
from repro.runtime.admission import (
    AdmissionConfig,
    AdmissionController,
    AutoscalerConfig,
    ShardAutoscaler,
    TokenBucketConfig,
)
from repro.runtime.coalesce import LocationFixCache
from repro.runtime.dispatcher import Dispatcher
from repro.runtime.futures import Future, FutureStateError
from repro.runtime.scheduler import AgentTask, CooperativeScheduler
from repro.util.clock import Scheduler

if TYPE_CHECKING:  # pragma: no cover
    from repro.distrib.config import DistribConfig
    from repro.distrib.runtime import DistribRuntime

#: The longest virtual span one :meth:`ConcurrencyRuntime.drain` may cover
#: (one virtual day).  It bounds virtual time rather than heap instants,
#: which grow with agents × seconds and would stop a healthy large fleet.
DRAIN_LIMIT_MS = 86_400_000.0

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AgentTask",
    "AutoscalerConfig",
    "ConcurrencyRuntime",
    "CooperativeScheduler",
    "DRAIN_LIMIT_MS",
    "Dispatcher",
    "Future",
    "FutureStateError",
    "LocationFixCache",
    "ShardAutoscaler",
    "TokenBucketConfig",
]


class ConcurrencyRuntime:
    """One deployment's concurrency plane.

    Bundles the cooperative task scheduler, lazily-created per-platform
    dispatchers and the location-fix caches over one shared
    :class:`~repro.util.clock.Scheduler`.

    Parameters
    ----------
    scheduler:
        The world's event scheduler (a fleet's, a scenario's).
    shards / queue_depth:
        Defaults for every platform dispatcher; override per platform
        with ``shards_per_platform``.
    seed:
        Seeds the cooperative scheduler's RNG (the only randomness
        workloads may use).
    observability:
        Hub receiving the runtime's own ``runtime.*`` metrics; defaults
        to a disabled hub (live metrics, no-op tracer).  Per-request
        spans always go to the *submitting proxy's* tracer so queue
        spans join that proxy's span tree.
    location_staleness_ms:
        Window for :meth:`get_location` fix reuse.
    admission:
        Optional :class:`~repro.runtime.admission.AdmissionConfig`
        enabling the adaptive admission plane — token-bucket
        throttling, priority-aware shedding, overflow leveling and (if
        its ``autoscaler`` field is set) a per-dispatcher shard
        autoscaler evaluated at every drain tick.  ``None`` (the
        default) keeps static bounded queues.
    distrib:
        Optional :class:`~repro.distrib.config.DistribConfig` mounting
        the distributed data tier (see ``docs/DISTRIBUTION.md``): the
        runtime's location-fix caches become region-aware tiered caches, a
        :class:`~repro.distrib.runtime.DistribRuntime` is exposed as
        ``self.distrib``, and its anti-entropy gossip tick rides the
        cooperative scheduler's drain instants.  Every cross-region hop
        the tier makes is causally stamped (``causal.vc`` /
        ``causal.origin`` span attributes, per-region vector clocks) and
        audited for happens-before violations — see the ``causal``
        section of ``docs/OBSERVABILITY.md``.  ``None`` (the default)
        keeps the single-node location-fix caches.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        *,
        shards: int = 2,
        queue_depth: int = 32,
        seed: int = 0,
        observability: Optional[Observability] = None,
        shards_per_platform: Optional[Dict[str, int]] = None,
        location_staleness_ms: float = 5_000.0,
        admission: Optional[AdmissionConfig] = None,
        distrib: Optional["DistribConfig"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.observability = (
            observability if observability is not None else Observability.disabled()
        )
        # Queue spans must stamp the shared virtual clock, not a hub default.
        self.observability.bind_clock(scheduler.clock)
        self.default_shards = shards
        self.queue_depth = queue_depth
        self.seed = seed
        self.shards_per_platform = dict(shards_per_platform or {})
        self.location_staleness_ms = location_staleness_ms
        self.admission = admission
        self.tasks = CooperativeScheduler(
            scheduler, seed=seed, observability=self.observability
        )
        self._dispatchers: Dict[str, Dispatcher] = {}
        self._autoscalers: Dict[str, ShardAutoscaler] = {}
        self._location_caches: Dict[int, LocationFixCache] = {}
        self.distrib: Optional["DistribRuntime"] = None
        if distrib is not None:
            # Imported lazily: repro.distrib is an optional tier and the
            # runtime package must stay importable without it in scope.
            from repro.distrib.runtime import DistribRuntime

            self.distrib = DistribRuntime(
                scheduler, distrib, observability=self.observability
            )
            # Gossip repair rides the same control instants as autoscaling.
            self.tasks.add_drain_hook(self.distrib.tick)
        if admission is not None and admission.autoscaler is not None:
            # Fleet-driven runs advance time through the cooperative
            # scheduler, so the control loop rides its drain passes.
            self.tasks.add_drain_hook(self.evaluate_autoscalers)

    # -- dispatchers ---------------------------------------------------------

    def dispatcher(self, platform: str) -> Dispatcher:
        """The (lazily created) dispatcher serving one platform."""
        dispatcher = self._dispatchers.get(platform)
        if dispatcher is None:
            dispatcher = Dispatcher(
                self.scheduler,
                platform=platform,
                shards=self.shards_per_platform.get(platform, self.default_shards),
                queue_depth=self.queue_depth,
                observability=self.observability,
                admission=self.admission,
            )
            self._dispatchers[platform] = dispatcher
            if self.admission is not None and self.admission.autoscaler is not None:
                self._autoscalers[platform] = ShardAutoscaler(
                    dispatcher,
                    self.admission.autoscaler,
                    sampler=self.observability.sampler,
                    observability=self.observability,
                )
        return dispatcher

    def dispatchers(self) -> Dict[str, Dispatcher]:
        return dict(self._dispatchers)

    def autoscalers(self) -> Dict[str, ShardAutoscaler]:
        """Per-platform shard autoscalers (empty when admission is off)."""
        return dict(self._autoscalers)

    def evaluate_autoscalers(self) -> None:
        """One control tick for every attached autoscaler (called at
        drain instants; safe to call ad hoc in tests)."""
        now = self.scheduler.clock.now_ms
        for platform in sorted(self._autoscalers):
            self._autoscalers[platform].evaluate(now)

    def submit(
        self,
        platform: str,
        operation: str,
        thunk: Callable[[], Any],
        *,
        key: Optional[str] = None,
        coalesce_key: Optional[str] = None,
        tracer=None,
        priority: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Future:
        """Queue one invocation on ``platform``'s dispatcher."""
        return self.dispatcher(platform).submit(
            operation,
            thunk,
            key=key,
            coalesce_key=coalesce_key,
            tracer=tracer,
            priority=priority,
            tenant=tenant,
        )

    # -- proxy-aware conveniences -------------------------------------------

    @staticmethod
    def _tracer_of(proxy):
        observability = proxy.observability
        return None if observability is None else observability.tracer

    def submit_invocation(
        self,
        proxy,
        operation: str,
        thunk: Callable[[], Any],
        *,
        key: Optional[str] = None,
        coalesce_key: Optional[str] = None,
        priority: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> Future:
        """Queue a call on ``proxy``; platform and tracer are derived
        from its binding plane and attached observability hub."""
        return self.submit(
            proxy.binding.platform,
            operation,
            thunk,
            key=key,
            coalesce_key=coalesce_key,
            tracer=self._tracer_of(proxy),
            priority=priority,
            tenant=tenant,
        )

    def http_get(
        self,
        http_proxy,
        url: str,
        *,
        coalesce: bool = True,
        tenant: Optional[str] = None,
    ) -> Future:
        """Idempotent GET through the dispatcher.

        With ``coalesce`` on, concurrent GETs to the same URL on the
        same platform share one network round trip — the in-flight
        window is the primary request's queue + service interval.
        """
        platform = http_proxy.binding.platform
        coalesce_key = f"{platform}:GET:{url}" if coalesce else None
        return self.submit_invocation(
            http_proxy,
            "get",
            lambda: http_proxy.get(url),
            coalesce_key=coalesce_key,
            tenant=tenant,
        )

    def get_location(
        self,
        location_proxy,
        *,
        fresh: bool = False,
        tenant: Optional[str] = None,
    ) -> Future:
        """A location fix, reusing one younger than the staleness window.

        ``fresh=True`` bypasses (but still refreshes) the cache.  Fix
        requests for the same proxy also coalesce in flight — ten agents
        asking at once cost one GPS read.
        """
        cache = self._location_caches.get(id(location_proxy))
        if cache is None:
            if self.distrib is not None:
                cache = self.distrib.location_cache(
                    location_proxy.binding.platform
                )
            else:
                cache = LocationFixCache(
                    self.scheduler.clock,
                    staleness_ms=self.location_staleness_ms,
                    metrics=self.observability.metrics,
                    label=location_proxy.binding.platform,
                )
            self._location_caches[id(location_proxy)] = cache
        if not fresh:
            cached = cache.get()
            if cached is not None:
                return Future.resolved(cached)
        future = self.submit_invocation(
            location_proxy,
            "getLocation",
            location_proxy.get_location,
            coalesce_key=f"fix:{id(location_proxy)}",
            tenant=tenant,
        )

        def remember(done: Future) -> None:
            if done.error is None:
                cache.put(done.value)

        future.add_done_callback(remember)
        return future

    # -- driving -------------------------------------------------------------

    def spawn(self, name: str, generator, *, priority: int = 0) -> AgentTask:
        """Spawn a cooperative agent task (see CooperativeScheduler)."""
        return self.tasks.spawn(name, generator, priority=priority)

    def run_for(self, delta_ms: float) -> int:
        return self.scheduler.run_for(delta_ms)

    @property
    def quiescent(self) -> bool:
        """Every task finished (or parked on an externally-settled future,
        which only the caller can move); every dispatcher lane idle."""
        tasks = self.tasks
        if tasks.settled_count != len(tasks.tasks):
            return False
        return all(d.idle for d in self._dispatchers.values())

    def drain(self) -> int:
        """Advance virtual time until the runtime is quiescent.

        Unlike ``Scheduler.drain`` this tolerates periodic substrate
        timers (GPS polling etc.): it stops on *runtime* quiescence —
        all shard lanes drained, all tasks done — not on an empty heap.
        Each pass runs the world up to the earliest heap deadline or
        lane horizon and checks quiescence again.  A drain that would
        run past :data:`DRAIN_LIMIT_MS` of virtual time raises
        ``RuntimeError``: some task never settles.  Returns callbacks
        executed.
        """
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
                horizon = dispatcher.next_event_ms()
                if horizon is not None and (target is None or horizon < target):
                    target = horizon
            if target is None:
                return executed  # nothing scheduled can move the state
            if target > limit_ms:
                raise RuntimeError(
                    f"drain did not reach quiescence within {DRAIN_LIMIT_MS:g} "
                    f"virtual ms (next event at {target}, now {clock.now_ms})"
                )
            now = clock.now_ms
            executed += scheduler.run_until(target if target > now else now)
