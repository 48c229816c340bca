"""Read coalescing and caching for idempotent proxy operations.

Two independent savings, both safe only for reads:

* **in-flight coalescing** — handled inside the dispatcher via coalesce
  keys (HTTP GETs to the same URL share one execution while one is
  queued or in service);
* **location fix reuse** — :class:`LocationFixCache` serves the last fix
  while it is no older than :data:`STALENESS_MS` on the virtual clock.

Every hit and miss is a ``runtime.*`` counter so the benchmarks can
report the saving.
"""

from __future__ import annotations

from typing import Any

from repro.util.clock import SimulatedClock

#: How old (in virtual time) a reused fix may be.
STALENESS_MS = 5_000.0


class LocationFixCache:
    """Serve a fix no older than :data:`STALENESS_MS` instead of
    touching the GPS again."""

    def __init__(
        self,
        clock: SimulatedClock,
        *,
        metrics=None,
        label: str = "location",
    ) -> None:
        self._clock = clock
        self._fix: Any = None
        self._fixed_at_ms = -1.0
        if metrics is None:
            from repro.obs import MetricsRegistry

            metrics = MetricsRegistry()
        self._hits = metrics.counter("runtime.location_cache_hits", source=label)
        self._misses = metrics.counter("runtime.location_cache_misses", source=label)

    def get(self) -> Any:
        """The cached fix if still fresh, else ``None`` (counted)."""
        age = self._clock.now_ms - self._fixed_at_ms
        if self._fix is not None and age <= STALENESS_MS:
            self._hits.inc()
            return self._fix
        self._misses.inc()
        return None

    def put(self, fix: Any) -> None:
        """Remember ``fix``, stamped at the current virtual instant."""
        self._fix = fix
        self._fixed_at_ms = self._clock.now_ms

    def invalidate(self) -> None:
        self._fix = None
        self._fixed_at_ms = -1.0

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value
