"""Tiered caches: region-local L1 over a replicated backing store.

:class:`TieredCache` promotes the runtime's single-node location cache
to a two-tier design.  Each region keeps an L1 slot map (value,
cached-at stamp, backing version); misses read through to the backing
:class:`~repro.distrib.replication.ReplicatedTable`, writes buffer in a
write-behind queue flushed after ``write_behind_delay_ms``, and every
write fans an invalidation out to the *other* regions' L1s after the
inter-region delay — dropped when a partition cuts the pair, which is
exactly when ``distrib.cache_stale_reads`` starts counting: a read
served from an L1 slot whose version is older than what the backing
store already knows is a *stale* hit, and the counter quantifies the
staleness the tier trades for latency.

:class:`TieredLocationFixCache` keeps the runtime API unchanged: it
mirrors ``LocationFixCache`` (get/put/invalidate/hits/misses).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.util.clock import Scheduler

from repro.distrib.causal import CausalMonitor, CausalTracker, encode_vc
from repro.distrib.config import DistribConfig
from repro.distrib.replication import PartitionMap, ReplicatedTable


class _L1Slot:
    __slots__ = ("value", "cached_at_ms", "version")

    def __init__(self, value: Any, cached_at_ms: float, version) -> None:
        self.value = value
        self.cached_at_ms = cached_at_ms
        self.version = version


class TieredCache:
    """Write-behind cache over a replicated table.

    A miss that the backing replica cannot serve returns ``None``; the
    caller populates the cache via :meth:`put`.
    """

    def __init__(
        self,
        name: str,
        config: DistribConfig,
        scheduler: Scheduler,
        backing: ReplicatedTable,
        partitions: PartitionMap,
        *,
        observability=None,
        causal: Optional[CausalTracker] = None,
        monitor: Optional[CausalMonitor] = None,
    ) -> None:
        self.name = name
        self.config = config
        self._scheduler = scheduler
        self.backing = backing
        self._partitions = partitions
        self._observability = observability
        self._metrics = observability.metrics if observability else None
        self.causal = causal
        self.monitor = monitor
        self._l1: Dict[str, Dict[str, _L1Slot]] = {
            region: {} for region in config.regions
        }
        self._pending: Dict[Tuple[str, str], Any] = {}

    def _count(self, metric: str, **labels: Any) -> None:
        if self._metrics is not None:
            self._metrics.counter(metric, cache=self.name, **labels).inc()

    @property
    def _tracer(self):
        tracer = (
            self._observability.tracer if self._observability else None
        )
        return tracer if tracer is not None and tracer.enabled else None

    # -- reads ----------------------------------------------------------------

    def get(self, key: str, *, region: Optional[str] = None) -> Any:
        """The freshest value the region can see without blocking.

        Order: fresh L1 slot (stale-hit accounting against the backing
        version) → backing replica → ``None``.
        """
        target = region if region is not None else self.config.home_region
        now = self._scheduler.clock.now_ms
        slot = self._l1[target].get(key)
        if slot is not None and now - slot.cached_at_ms <= (
            self.config.cache_staleness_ms
        ):
            backing_version = self.backing.version_of(key, region=target)
            if backing_version is not None and (
                slot.version is None or slot.version < backing_version
            ):
                self._count("distrib.cache_stale_reads", region=target)
            if self.monitor is not None:
                self.monitor.check_cache_read(
                    self.name, key, target, slot.cached_at_ms, now
                )
            self._count("distrib.cache_hits", region=target)
            return slot.value
        self._count("distrib.cache_misses", region=target)
        value = self.backing.get(key, region=target)
        if value is not None:
            version = self.backing.version_of(key, region=target)
            self._l1[target][key] = _L1Slot(value, now, version)
        return value

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, value: Any, *, region: Optional[str] = None) -> None:
        """Write into the region's L1 now; the backing write happens
        ``write_behind_delay_ms`` later (coalescing rapid re-writes),
        and the other regions' L1 slots are invalidated after the
        inter-region delay."""
        target = region if region is not None else self.config.home_region
        now = self._scheduler.clock.now_ms
        if self.causal is not None:
            self.causal.tick(target)
        self._l1[target][key] = _L1Slot(value, now, None)
        pending_key = (target, key)
        first_buffer = pending_key not in self._pending
        self._pending[pending_key] = value
        if first_buffer:
            self._scheduler.call_later(
                self.config.write_behind_delay_ms,
                lambda: self._flush(target, key),
                name=f"distrib:{self.name}:write-behind",
            )
        self._fan_out_invalidation(key, origin=target)

    def _flush(self, region: str, key: str) -> None:
        value = self._pending.pop((region, key), None)
        if value is None:
            return
        self._count("distrib.cache_flushes", region=region)
        tracer = self._tracer
        if tracer is not None:
            # The backing write's `write:<table>` span (with its causal
            # stamp) nests under the flush span.
            with tracer.span(
                f"flush:{self.name}", cache=self.name, key=key, region=region
            ):
                version = self.backing.put(key, value, region=region)
        else:
            version = self.backing.put(key, value, region=region)
        slot = self._l1[region].get(key)
        if slot is not None and slot.value == value:
            slot.version = version

    def flush_pending(self) -> int:
        """Flush every buffered write now (shutdown / test aid)."""
        flushed = 0
        for region, key in sorted(self._pending):
            self._flush(region, key)
            flushed += 1
        return flushed

    def _fan_out_invalidation(self, key: str, *, origin: str) -> None:
        # The causal context travels with the message: the origin
        # region's clock at send time, plus the span the send happened
        # under (the invalidation's ``causal.origin``).
        vc = self.causal.clock(origin) if self.causal is not None else None
        tracer = self._tracer
        current = tracer.current_span if tracer is not None else None
        origin_ref = (
            f"{current.trace_id}:{current.span_id}"
            if current is not None
            else None
        )
        for peer in self.config.regions:
            if peer == origin:
                continue
            if not self._partitions.connected(origin, peer):
                self._count("distrib.cache_invalidations_dropped", region=peer)
                continue
            self._count("distrib.cache_invalidations_sent", region=peer)
            self._scheduler.call_later(
                self.config.replication_delay_ms,
                lambda peer=peer: self._apply_invalidation(
                    peer, key, origin, vc=vc, origin_ref=origin_ref
                ),
                name=f"distrib:{self.name}:invalidate:{peer}",
            )

    def _apply_invalidation(
        self,
        region: str,
        key: str,
        origin: str,
        *,
        vc=None,
        origin_ref: Optional[str] = None,
    ) -> None:
        if not self._partitions.connected(origin, region):
            self._count("distrib.cache_invalidations_dropped", region=region)
            return
        now = self._scheduler.clock.now_ms
        if self.causal is not None and vc:
            self.causal.observe(region, vc)
        applied = self._l1[region].pop(key, None) is not None
        if self.monitor is not None:
            self.monitor.invalidation_delivered(
                self.name, key, region, origin, now
            )
        if applied:
            self._count("distrib.cache_invalidations_applied", region=region)
        tracer = self._tracer
        if tracer is not None:
            attributes = {
                "cache": self.name,
                "key": key,
                "region": region,
                "origin": origin,
                "applied": applied,
            }
            if vc:
                attributes["causal.vc"] = encode_vc(vc)
            if origin_ref is not None:
                attributes["causal.origin"] = origin_ref
            with tracer.span(f"invalidate:{self.name}", **attributes):
                pass

    def invalidate(self, key: str, *, region: Optional[str] = None) -> None:
        """Drop the region's L1 slot and fan the invalidation out."""
        target = region if region is not None else self.config.home_region
        self._l1[target].pop(key, None)
        self._pending.pop((target, key), None)
        self._fan_out_invalidation(key, origin=target)

    def l1_slot(self, key: str, *, region: Optional[str] = None) -> Optional[Any]:
        """The raw L1 value (``None`` when absent) — test aid."""
        target = region if region is not None else self.config.home_region
        slot = self._l1[target].get(key)
        return slot.value if slot is not None else None


class TieredLocationFixCache:
    """``LocationFixCache``-shaped adapter over a :class:`TieredCache`.

    The runtime swaps this in per proxy when distrib is configured; the
    fix lives under ``fix:<label>`` in the tier's home region, so other
    regions converge on the latest fix through the backing table.
    """

    def __init__(
        self,
        tier: TieredCache,
        *,
        label: str = "location",
        metrics=None,
        staleness_ms: Optional[float] = None,
    ) -> None:
        self._tier = tier
        self._key = f"fix:{label}"
        self.staleness_ms = (
            staleness_ms
            if staleness_ms is not None
            else tier.config.cache_staleness_ms
        )
        if metrics is None:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self._hits = metrics.counter("runtime.location_cache_hits", source=label)
        self._misses = metrics.counter(
            "runtime.location_cache_misses", source=label
        )

    def get(self) -> Any:
        fix = self._tier.get(self._key)
        if fix is not None:
            self._hits.inc()
            return fix
        self._misses.inc()
        return None

    def put(self, fix: Any) -> None:
        self._tier.put(self._key, fix)

    def invalidate(self) -> None:
        self._tier.invalidate(self._key)

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value
