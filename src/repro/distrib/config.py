"""Configuration for the distributed data tier.

One frozen dataclass describes the whole tier: the region set, the
replication/gossip cadence and the write quorum.  Everything is
virtual-time milliseconds and a single integer seed — the tier derives
per-table RNG streams from it, so the same config and seed replay
byte-identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import ConfigurationError

#: Default simulated regions.  Names are arbitrary labels; ordering
#: matters — the first region is the *home* region where single-node
#: components (the WebView notification table, local caches) write.
DEFAULT_REGIONS: Tuple[str, ...] = ("ap-south", "eu-west")


@dataclass(frozen=True)
class DistribConfig:
    """Immutable description of the distributed data tier.

    Parameters
    ----------
    regions:
        Simulated region names.  At least one; the first is the home
        region.  Duplicates are rejected.
    replication_delay_ms:
        Virtual one-way latency of an inter-region replication or
        invalidation message.
    gossip_interval_ms:
        Minimum virtual time between anti-entropy sweeps.  The sweep is
        driven from the cooperative scheduler's drain hook, so it fires
        at the first drain tick after the interval elapses.
    write_quorum:
        How many replicas (including the origin) a write must be able
        to reach; an unreachable quorum raises
        :class:`~repro.errors.ProxyReplicaUnavailableError` (code 1014).
    seed:
        Root seed for every RNG stream the tier derives.
    """

    regions: Tuple[str, ...] = DEFAULT_REGIONS
    replication_delay_ms: float = 250.0
    gossip_interval_ms: float = 1_000.0
    write_quorum: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "regions", tuple(self.regions))
        if not self.regions:
            raise ConfigurationError("distrib needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise ConfigurationError(f"duplicate regions: {self.regions}")
        # A NaN interval compares false against every elapsed time, so
        # anti-entropy would never run; a float seed names other RNG
        # streams than the int it equals.
        for name in ("write_quorum", "seed"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
        for name in ("replication_delay_ms", "gossip_interval_ms"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.replication_delay_ms < 0:
            raise ConfigurationError("replication_delay_ms cannot be negative")
        if self.gossip_interval_ms <= 0:
            raise ConfigurationError("gossip_interval_ms must be positive")
        if not 1 <= self.write_quorum <= len(self.regions):
            raise ConfigurationError(
                f"write_quorum must be in [1, {len(self.regions)}], "
                f"got {self.write_quorum}"
            )

    @property
    def home_region(self) -> str:
        """The region single-node components write to (first declared)."""
        return self.regions[0]
