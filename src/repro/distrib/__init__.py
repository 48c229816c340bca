"""The distributed data tier (see ``docs/DISTRIBUTION.md``).

A seeded, virtual-clock-deterministic simulation of the multi-region
substrate a production deployment of the middleware would run on:

* :mod:`~repro.distrib.replication` — per-key LWW-versioned replicated
  tables, anti-entropy gossip, injectable partitions;
* :mod:`~repro.distrib.cache` — region-local L1 caches over replicated
  tables, with write-behind, cross-region invalidation fan-out and
  staleness accounting;
* :mod:`~repro.distrib.idempotency` — the idempotency-key store that
  makes retried substrate writes exactly-once;
* :mod:`~repro.distrib.saga` — compensating multi-step flows;
* :mod:`~repro.distrib.causal` — per-region vector clocks, causal span
  stamps (``causal.origin`` / ``causal.vc``), write→visibility lag
  tracking and the happens-before audit;
* :mod:`~repro.distrib.runtime` — the bundle
  ``ConcurrencyRuntime(distrib=DistribConfig(...))`` mounts.

Everything rides the shared virtual-time :class:`~repro.util.clock.Scheduler`
and string-seeded RNG streams: same seed, same scenario ⇒ byte-identical
exports.
"""

from repro.distrib.causal import (
    CausalMonitor,
    CausalStamp,
    CausalTracker,
    decode_vc,
    encode_vc,
    vc_dominates,
)
from repro.distrib.config import DEFAULT_REGIONS, DistribConfig
from repro.distrib.idempotency import (
    ChainContext,
    IdempotencyStore,
    chain_context,
    current_chain,
)
from repro.distrib.replication import (
    PartitionMap,
    ReplicaState,
    ReplicatedTable,
    Version,
    VersionedEntry,
)
from repro.distrib.cache import TieredCache, TieredLocationFixCache
from repro.distrib.saga import SagaExecution, SagaOrchestrator, SagaStep
from repro.distrib.runtime import DistribRuntime

__all__ = [
    "DEFAULT_REGIONS",
    "CausalMonitor",
    "CausalStamp",
    "CausalTracker",
    "ChainContext",
    "DistribConfig",
    "DistribRuntime",
    "IdempotencyStore",
    "PartitionMap",
    "ReplicaState",
    "ReplicatedTable",
    "SagaExecution",
    "SagaOrchestrator",
    "SagaStep",
    "TieredCache",
    "TieredLocationFixCache",
    "Version",
    "VersionedEntry",
    "chain_context",
    "current_chain",
    "decode_vc",
    "encode_vc",
    "vc_dominates",
]
