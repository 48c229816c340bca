"""The distributed data tier's runtime: tables, caches, sagas, dedup.

:class:`DistribRuntime` is the bundle the concurrency runtime mounts
when constructed with ``ConcurrencyRuntime(distrib=DistribConfig(...))``:

* lazily-created named :class:`~repro.distrib.replication.ReplicatedTable`\\ s
  sharing one :class:`~repro.distrib.replication.PartitionMap`;
* :class:`~repro.distrib.cache.TieredCache` instances (plus the
  location adapter the runtime swaps in for its single-node location
  cache);
* one :class:`~repro.distrib.idempotency.IdempotencyStore` attached to
  the fleet's substrate write sites;
* one :class:`~repro.distrib.saga.SagaOrchestrator`;
* the gossip driver — :meth:`tick` registers as a
  ``CooperativeScheduler`` drain hook and runs an anti-entropy sweep
  whenever ``gossip_interval_ms`` of virtual time has elapsed since
  the last one, so replication repair rides the same control instants
  as autoscaling.

Partitions are first-class scenario inputs: :meth:`partition_window`
schedules a cut and its heal on the virtual clock, emitting
``partition:<a>|<b>`` spans so trace analysis can correlate replication
lag spikes with the outage that caused them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.util.clock import Scheduler

from repro.distrib.cache import TieredCache, TieredLocationFixCache
from repro.distrib.causal import CausalMonitor, CausalTracker
from repro.distrib.config import DistribConfig
from repro.distrib.idempotency import IdempotencyStore
from repro.distrib.replication import PartitionMap, ReplicatedTable
from repro.distrib.saga import SagaOrchestrator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability


class DistribRuntime:
    """One deployment's distributed data tier."""

    def __init__(
        self,
        scheduler: Scheduler,
        config: DistribConfig,
        *,
        observability: Optional["Observability"] = None,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.scheduler = scheduler
        self.config = config
        self.observability = observability
        self._injector = injector
        self.partitions = PartitionMap()
        self._tables: Dict[str, ReplicatedTable] = {}
        self._caches: Dict[str, TieredCache] = {}
        self._location_caches: Dict[str, TieredLocationFixCache] = {}
        #: Shared per-region vector clocks + write visibility tracking —
        #: one tracker orders events across every table and cache.
        self.causal = CausalTracker(
            config.regions,
            metrics=observability.metrics if observability else None,
        )
        #: The happens-before audit (stale reads, LWW inversions).
        self.monitor = CausalMonitor(observability=observability)
        self.idempotency = IdempotencyStore(
            observability.metrics if observability else None,
            capacity=config.idempotency_capacity,
            label="distrib",
            region=config.home_region,
        )
        self.sagas = SagaOrchestrator(
            scheduler,
            observability=observability,
            region=config.home_region,
            causal=self.causal,
        )
        self._last_sweep_ms = scheduler.clock.now_ms

    # -- wiring ---------------------------------------------------------------

    def bind_injector(self, injector: Optional["FaultInjector"]) -> None:
        """Late-bind the fault injector to every table (fleet wiring)."""
        self._injector = injector
        for table in self._tables.values():
            table.bind_injector(injector)

    @property
    def _metrics(self):
        return self.observability.metrics if self.observability else None

    @property
    def _tracer(self):
        tracer = self.observability.tracer if self.observability else None
        return tracer if tracer is not None and tracer.enabled else None

    # -- tables and caches ----------------------------------------------------

    def table(self, name: str) -> ReplicatedTable:
        """The named replicated table (lazily created)."""
        table = self._tables.get(name)
        if table is None:
            table = ReplicatedTable(
                name,
                self.config,
                self.scheduler,
                self.partitions,
                observability=self.observability,
                injector=self._injector,
                causal=self.causal,
                monitor=self.monitor,
            )
            self._tables[name] = table
        return table

    def tables(self) -> Dict[str, ReplicatedTable]:
        return dict(self._tables)

    def cache(self, name: str) -> TieredCache:
        """The named tiered cache (lazily created over ``cache:<name>``)."""
        cache = self._caches.get(name)
        if cache is None:
            cache = TieredCache(
                name,
                self.config,
                self.scheduler,
                self.table(f"cache:{name}"),
                self.partitions,
                observability=self.observability,
                causal=self.causal,
                monitor=self.monitor,
            )
            self._caches[name] = cache
        return cache

    def location_cache(self, label: str) -> TieredLocationFixCache:
        """A ``LocationFixCache``-shaped view over the location tier."""
        adapter = self._location_caches.get(label)
        if adapter is None:
            adapter = TieredLocationFixCache(
                self.cache("location"),
                label=label,
                metrics=self._metrics,
            )
            self._location_caches[label] = adapter
        return adapter

    # -- partitions -----------------------------------------------------------

    def _count(self, metric: str, **labels: Any) -> None:
        if self._metrics is not None:
            self._metrics.counter(metric, **labels).inc()

    def _partition_span(self, event: str, a: str, b: str) -> None:
        tracer = self._tracer
        if tracer is not None:
            first, second = sorted((a, b))
            with tracer.span(
                f"partition:{first}|{second}", event=event, a=first, b=second
            ):
                pass

    def partition(self, a: str, b: str) -> None:
        """Cut the region pair now (both directions)."""
        self.partitions.partition(a, b)
        self._count("distrib.partitions")
        self._partition_span("cut", a, b)

    def heal(self, a: str, b: str) -> None:
        self.partitions.heal(a, b)
        self._count("distrib.heals")
        self._partition_span("heal", a, b)

    def heal_all(self) -> None:
        for a, b in self.partitions.edges():
            self.heal(a, b)

    def partition_window(
        self, a: str, b: str, start_ms: float, end_ms: float
    ) -> None:
        """Schedule a cut at ``start_ms`` and its heal at ``end_ms``
        (absolute virtual time) on the shared scheduler."""
        if end_ms <= start_ms:
            raise ValueError(
                f"partition window must be ordered, got [{start_ms}, {end_ms}]"
            )
        self.scheduler.call_at(
            start_ms, lambda: self.partition(a, b), name=f"partition:{a}|{b}"
        )
        self.scheduler.call_at(
            end_ms, lambda: self.heal(a, b), name=f"heal:{a}|{b}"
        )

    # -- gossip driver --------------------------------------------------------

    def tick(self) -> None:
        """Drain-hook entry point: sweep when the gossip interval has
        elapsed.  Cheap when it has not (one clock read)."""
        now = self.scheduler.clock.now_ms
        if now - self._last_sweep_ms >= self.config.gossip_interval_ms:
            self.sweep_now()

    def sweep_now(self) -> int:
        """Run one anti-entropy round over every table now."""
        self._last_sweep_ms = self.scheduler.clock.now_ms
        merges = 0
        for name in sorted(self._tables):
            merges += self._tables[name].anti_entropy_sweep()
        return merges

    def run_until_converged(self, *, max_rounds: int = 100) -> int:
        """Sweep (advancing past in-flight replication between rounds)
        until every table converges; returns rounds used.  Partitions
        must be healed first or this raises after ``max_rounds``."""
        for round_number in range(max_rounds):
            if self.converged:
                return round_number
            # Let in-flight replication messages land first.
            self.scheduler.run_for(self.config.replication_delay_ms)
            self.sweep_now()
        if not self.converged:
            raise RuntimeError(
                f"replicas did not converge within {max_rounds} gossip rounds "
                f"(partitions active: {self.partitions.edges()})"
            )
        return max_rounds

    @property
    def converged(self) -> bool:
        """Whether every table's replicas hold identical state."""
        return all(
            self._tables[name].converged for name in sorted(self._tables)
        )

    # -- export ---------------------------------------------------------------

    def export_state(self) -> Dict[str, Any]:
        """Deterministic snapshot of the whole tier."""
        return {
            "config": {
                "regions": list(self.config.regions),
                "write_quorum": self.config.write_quorum,
                "seed": self.config.seed,
            },
            "tables": {
                name: self._tables[name].export_state()
                for name in sorted(self._tables)
            },
            "content_hashes": {
                name: self._tables[name].content_hashes()
                for name in sorted(self._tables)
            },
            "partitions": [list(edge) for edge in self.partitions.edges()],
            "causal": {
                "clocks": {
                    region: dict(sorted(clock.items()))
                    for region, clock in self.causal.clocks().items()
                },
                "violations": self.monitor.export_state(),
            },
            # Count only: the raw keys embed a process-global chain
            # ordinal that would differ between same-seed runs sharing
            # one interpreter.
            "dedup_records": len(self.idempotency),
            "sagas": [
                {
                    "saga_id": execution.saga_id,
                    "name": execution.name,
                    "status": execution.status,
                    "steps": [step.name for step, _ in execution.completed_steps],
                }
                for execution in self.sagas.executions
            ],
        }

    def export_json(self) -> str:
        """The snapshot as canonical JSON (sorted keys) — the thing the
        byte-identical-determinism property hashes.  Non-JSON values
        (cached dataclasses) export by their deterministic ``repr``."""
        return json.dumps(
            self.export_state(), sort_keys=True, indent=2, default=repr
        )
