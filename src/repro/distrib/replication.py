"""Replicated tables: per-key versioned writes, gossip, partitions.

The tier simulates N regions as in-process :class:`ReplicaState` maps.
Every write is stamped with a totally-ordered version ``(counter,
origin-region)`` — a last-writer-wins register per key.  The origin
region applies the write immediately; each peer receives it after the
configured one-way replication delay on the shared virtual-time
scheduler.  Replication messages can be cut two ways: an active
:class:`PartitionMap` edge between the regions, or an injected
``distrib.replication``/``drop`` fault from the device's
:class:`~repro.faults.injector.FaultInjector`.  Anything cut is *not*
retried in flight — the periodic anti-entropy sweep
(:meth:`ReplicatedTable.anti_entropy_sweep`) pulls missing entries
peer-to-peer until every replica holds the same state, which is the
eventual-consistency contract the property suite checks.

Determinism: merges compare version tuples only, peers are visited in
sorted-region order, and gossip peer selection draws from a per-table
RNG stream seeded ``"distrib:{seed}:{table}"``.  Same seed, same
scenario ⇒ byte-identical :meth:`ReplicatedTable.export_state`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import ProxyReplicaUnavailableError
from repro.util.clock import Scheduler

from repro.distrib.causal import CausalMonitor, CausalTracker, encode_vc
from repro.distrib.config import DistribConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector
    from repro.obs import Observability

#: A version stamp: (table-global write counter, origin region).  Tuple
#: comparison gives a total order; the region breaks counter ties that
#: cannot happen within one table but keeps the type self-describing.
Version = Tuple[int, str]

#: Peers each region pulls from in one anti-entropy sweep.
GOSSIP_FANOUT = 1


@dataclass(frozen=True)
class VersionedEntry:
    """One replicated key/value pair with its version stamp.

    ``value`` must be JSON-serialisable; ``None`` is the tombstone (a
    deleted key still replicates so deletes win over stale writes).
    """

    key: str
    value: Any
    version: Version
    updated_at_ms: float


class ReplicaState:
    """One region's copy of a table: a key → entry map with LWW merge."""

    def __init__(self, region: str) -> None:
        self.region = region
        self._entries: Dict[str, VersionedEntry] = {}

    def get(self, key: str) -> Optional[VersionedEntry]:
        return self._entries.get(key)

    def merge(self, entry: VersionedEntry) -> bool:
        """Apply ``entry`` iff its version is newer; True when applied."""
        existing = self._entries.get(entry.key)
        if existing is not None and existing.version >= entry.version:
            return False
        self._entries[entry.key] = entry
        return True

    def entries(self) -> List[VersionedEntry]:
        return [self._entries[key] for key in sorted(self._entries)]

    def content_hash(self) -> str:
        """Deterministic digest of the replica's full state.

        Non-JSON values (a ``Location`` dataclass in the tiered caches)
        hash by ``repr`` — deterministic for the simulation's frozen
        dataclasses, which never embed object identities.
        """
        canonical = json.dumps(
            {
                key: [list(entry.version), entry.value]
                for key, entry in sorted(self._entries.items())
            },
            sort_keys=True,
            separators=(",", ":"),
            default=repr,
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def __len__(self) -> int:
        return len(self._entries)


class PartitionMap:
    """Which region pairs are currently cut from each other.

    Edges are symmetric; a partitioned pair drops replication and
    invalidation messages in both directions until healed.
    """

    def __init__(self) -> None:
        self._cut: Set[FrozenSet[str]] = set()

    def partition(self, a: str, b: str) -> None:
        if a == b:
            return
        self._cut.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._cut.discard(frozenset((a, b)))

    def heal_all(self) -> None:
        self._cut.clear()

    def connected(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) not in self._cut

    @property
    def active(self) -> bool:
        return bool(self._cut)

    def edges(self) -> List[Tuple[str, str]]:
        return sorted(tuple(sorted(pair)) for pair in self._cut)


class ReplicatedTable:
    """A named LWW table replicated across the configured regions.

    All timing rides the shared virtual-time ``scheduler``; all
    randomness (gossip peer choice) comes from a per-table stream, so
    the table is a pure function of (config, scenario, seed).
    """

    def __init__(
        self,
        name: str,
        config: DistribConfig,
        scheduler: Scheduler,
        partitions: PartitionMap,
        *,
        observability: Optional["Observability"] = None,
        injector: Optional["FaultInjector"] = None,
        causal: Optional[CausalTracker] = None,
        monitor: Optional[CausalMonitor] = None,
    ) -> None:
        self.name = name
        self.config = config
        self._scheduler = scheduler
        self._partitions = partitions
        self._observability = observability
        self._injector = injector
        self.causal = causal
        self.monitor = monitor
        self._replicas: Dict[str, ReplicaState] = {
            region: ReplicaState(region) for region in config.regions
        }
        self._counter = 0
        self._rng = random.Random(f"distrib:{config.seed}:{name}")

    # -- wiring ---------------------------------------------------------------

    def bind_injector(self, injector: Optional["FaultInjector"]) -> None:
        self._injector = injector

    @property
    def _metrics(self):
        return self._observability.metrics if self._observability else None

    @property
    def _tracer(self):
        tracer = self._observability.tracer if self._observability else None
        return tracer if tracer is not None and tracer.enabled else None

    def _count(self, metric: str, **labels: Any) -> None:
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(metric, table=self.name, **labels).inc()

    # -- writes ---------------------------------------------------------------

    def put(self, key: str, value: Any, *, region: Optional[str] = None) -> Version:
        """Write ``key`` at ``region`` (home region by default).

        Raises :class:`~repro.errors.ProxyReplicaUnavailableError`
        (code 1014) when the origin cannot reach ``write_quorum``
        replicas (itself included) through the current partitions.
        """
        origin = region if region is not None else self.config.home_region
        if origin not in self._replicas:
            raise KeyError(f"unknown region {origin!r} for table {self.name!r}")
        reachable = sum(
            1
            for peer in self.config.regions
            if self._partitions.connected(origin, peer)
        )
        if reachable < self.config.write_quorum:
            self._count("distrib.quorum_failures", region=origin)
            raise ProxyReplicaUnavailableError(
                f"table {self.name!r}: write of {key!r} at {origin} reaches "
                f"{reachable}/{self.config.write_quorum} replicas",
                context={
                    "table": self.name,
                    "region": origin,
                    "key": key,
                    "quorum": self.config.write_quorum,
                    "reachable": reachable,
                },
            )
        self._counter += 1
        entry = VersionedEntry(
            key=key,
            value=value,
            version=(self._counter, origin),
            updated_at_ms=self._scheduler.clock.now_ms,
        )
        stamp = None
        if self.causal is not None:
            stamp = self.causal.note_write(
                self.name, key, entry.version, origin, entry.updated_at_ms
            )
        tracer = self._tracer
        if tracer is not None:
            attributes = {
                "table": self.name,
                "key": key,
                "region": origin,
                "version": f"{entry.version[0]}@{origin}",
            }
            if stamp is not None:
                attributes["causal.vc"] = encode_vc(stamp.vc)
            with tracer.span(f"write:{self.name}", **attributes) as span:
                pass
            if stamp is not None:
                stamp.span_ref = f"{span.trace_id}:{span.span_id}"
        self._replicas[origin].merge(entry)
        self._count("distrib.writes", region=origin)
        for peer in self.config.regions:
            if peer != origin:
                self._send(entry, origin, peer)
        return entry.version

    def delete(self, key: str, *, region: Optional[str] = None) -> Version:
        """Tombstone ``key`` (replicates like any write)."""
        return self.put(key, None, region=region)

    def _send(self, entry: VersionedEntry, origin: str, peer: str) -> None:
        if not self._partitions.connected(origin, peer):
            self._count("distrib.replication_deferred", region=peer)
            return
        if self._injector is not None and self._injector.active:
            fault = self._injector.decide("distrib.replication")
            if fault is not None and fault.kind == "drop":
                self._count("distrib.replication_dropped", region=peer)
                return
        self._scheduler.call_later(
            self.config.replication_delay_ms,
            lambda: self._apply(entry, origin, peer),
            name=f"distrib:{self.name}:replicate:{peer}",
        )

    def _apply(self, entry: VersionedEntry, origin: str, peer: str) -> None:
        # A partition raised while the message was in flight cuts it too;
        # anti-entropy repairs the gap after the heal.
        if not self._partitions.connected(origin, peer):
            self._count("distrib.replication_deferred", region=peer)
            return
        prior = self._replicas[peer].get(entry.key)
        if not self._replicas[peer].merge(entry):
            self._count("distrib.replication_stale", region=peer)
            return
        now = self._scheduler.clock.now_ms
        lag_ms = now - entry.updated_at_ms
        self._count("distrib.replication_applied", region=peer)
        metrics = self._metrics
        if metrics is not None:
            metrics.histogram(
                "distrib.replication_lag_ms", table=self.name, region=peer
            ).observe(lag_ms)
        stamp = self._audit_merge(entry, prior, peer, now)
        tracer = self._tracer
        if tracer is not None:
            attributes = {
                "table": self.name,
                "key": entry.key,
                "origin": origin,
                "region": peer,
                "lag_ms": lag_ms,
                "version": f"{entry.version[0]}@{entry.version[1]}",
            }
            if stamp is not None:
                attributes["causal.vc"] = encode_vc(stamp.vc)
                if stamp.span_ref is not None:
                    attributes["causal.origin"] = stamp.span_ref
            with tracer.span(f"replicate:{self.name}", **attributes):
                pass

    def _audit_merge(self, entry, prior, region: str, now: float):
        """Happens-before audit + visibility bookkeeping for one applied
        merge; returns the incoming write's stamp (or ``None``)."""
        causal = self.causal
        if causal is None:
            return None
        stamp = causal.lookup(self.name, entry.key, entry.version)
        if self.monitor is not None and prior is not None:
            self.monitor.check_lww(
                self.name,
                entry.key,
                region,
                incoming=stamp,
                prior=causal.lookup(self.name, entry.key, prior.version),
                t_ms=now,
            )
        causal.note_visible(self.name, entry.key, entry.version, region, now)
        return stamp

    # -- reads ----------------------------------------------------------------

    def get(self, key: str, *, region: Optional[str] = None) -> Any:
        """The value visible at ``region`` (home by default); tombstoned
        or absent keys read as ``None``."""
        target = region if region is not None else self.config.home_region
        entry = self._replicas[target].get(key)
        return entry.value if entry is not None else None

    def version_of(self, key: str, *, region: Optional[str] = None) -> Optional[Version]:
        target = region if region is not None else self.config.home_region
        entry = self._replicas[target].get(key)
        return entry.version if entry is not None else None

    def entries_in(self, region: str) -> List[VersionedEntry]:
        return self._replicas[region].entries()

    # -- anti-entropy ---------------------------------------------------------

    def anti_entropy_sweep(self) -> int:
        """One gossip round: every region pulls from one seeded-sampled
        peer (:data:`GOSSIP_FANOUT`), merging whatever is newer.  Returns the
        number of entries merged; partitions block the pull.

        The ``gossip:<table>`` span opens *before* the merges so each
        applied merge can attach a ``gossip.merge`` event (with the
        origin write's causal stamp) to it; the merge count lands as a
        span attribute just before the span closes.
        """
        tracer = self._tracer
        span = (
            tracer.start_span(
                f"gossip:{self.name}",
                table=self.name,
                partitioned=self._partitions.active,
            )
            if tracer is not None
            else None
        )
        merges = 0
        merges_by_region: Dict[str, int] = {}
        regions = list(self.config.regions)
        for region in regions:
            peers = [peer for peer in regions if peer != region]
            if not peers:
                continue
            for peer in self._rng.sample(peers, GOSSIP_FANOUT):
                if not self._partitions.connected(region, peer):
                    self._count("distrib.gossip_blocked", region=region)
                    continue
                replica = self._replicas[region]
                for entry in self._replicas[peer].entries():
                    prior = replica.get(entry.key)
                    if not replica.merge(entry):
                        continue
                    merges += 1
                    merges_by_region[region] = (
                        merges_by_region.get(region, 0) + 1
                    )
                    now = self._scheduler.clock.now_ms
                    stamp = self._audit_merge(entry, prior, region, now)
                    if tracer is not None:
                        attributes = {
                            "table": self.name,
                            "key": entry.key,
                            "region": region,
                            "origin": peer,
                            "version": f"{entry.version[0]}@{entry.version[1]}",
                        }
                        if stamp is not None:
                            attributes["causal.vc"] = encode_vc(stamp.vc)
                            if stamp.span_ref is not None:
                                attributes["causal.origin"] = stamp.span_ref
                        tracer.event("gossip.merge", **attributes)
        self._count("distrib.gossip_sweeps")
        metrics = self._metrics
        if metrics is not None:
            for region in sorted(merges_by_region):
                metrics.counter(
                    "distrib.gossip_merges", table=self.name, region=region
                ).inc(merges_by_region[region])
        if span is not None:
            span.set_attribute("merges", merges)
            tracer.end_span(span)
        return merges

    # -- inspection -----------------------------------------------------------

    @property
    def converged(self) -> bool:
        """Whether every replica currently holds identical state."""
        hashes = {replica.content_hash() for replica in self._replicas.values()}
        return len(hashes) <= 1

    def content_hashes(self) -> Dict[str, str]:
        return {
            region: self._replicas[region].content_hash()
            for region in self.config.regions
        }

    def export_state(self) -> Dict[str, Any]:
        """Deterministic snapshot of every replica (sorted keys)."""
        return {
            region: {
                entry.key: {
                    "value": entry.value,
                    "version": list(entry.version),
                    "updated_at_ms": entry.updated_at_ms,
                }
                for entry in self._replicas[region].entries()
            }
            for region in self.config.regions
        }
