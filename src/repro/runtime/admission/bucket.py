"""Token buckets on the virtual clock.

The classic throttling shape: a bucket holds up to ``capacity`` tokens,
refills continuously at ``rate_per_s`` tokens per (virtual) second, and
a request is admitted iff it can take a whole token *now*.  Refill is
computed lazily from elapsed virtual time at each take — no timers, no
per-tick bookkeeping — so an idle tenant costs nothing.

Determinism contract: the bucket's state is a pure function of the
sequence of ``(now_ms, amount)`` takes.  Tokens never go negative (a
rejected take leaves the bucket untouched), and a rejected take reports
``retry_after_ms`` — the exact virtual time until the deficit refills —
which is what error 1013 carries back to the resilience plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TokenBucketConfig:
    """Immutable throttle budget for one tenant (or the default).

    ``capacity`` bounds the burst a tenant may land in one instant (and
    is every bucket's starting balance); ``rate_per_s`` bounds the
    sustained rate.
    """

    rate_per_s: float = 10.0
    capacity: float = 10.0

    def __post_init__(self) -> None:
        # A NaN rate refills every bucket to full; a NaN capacity rejects
        # every take with a NaN retry_after_ms.
        for name in ("rate_per_s", "capacity"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if self.rate_per_s <= 0:
            raise ConfigurationError(
                f"rate_per_s must be > 0, got {self.rate_per_s}"
            )
        if self.capacity < 1.0:
            raise ConfigurationError(
                f"capacity must be >= 1, got {self.capacity}"
            )


class TokenBucket:
    """One tenant's refillable budget (see module docstring)."""

    __slots__ = ("config", "tokens", "_last_ms", "taken", "rejected")

    def __init__(self, config: TokenBucketConfig, *, now_ms: float = 0.0) -> None:
        self.config = config
        self.tokens = config.capacity
        self._last_ms = float(now_ms)
        #: Successful takes (admitted requests).
        self.taken = 0
        #: Rejected takes (throttled requests).
        self.rejected = 0

    def _refill(self, now_ms: float) -> None:
        # The virtual clock is monotonic; tolerate equal stamps.
        elapsed_ms = max(0.0, now_ms - self._last_ms)
        if elapsed_ms > 0.0:
            self.tokens = min(
                self.config.capacity,
                self.tokens + self.config.rate_per_s * elapsed_ms / 1_000.0,
            )
            self._last_ms = now_ms

    def try_take(self, now_ms: float, amount: float = 1.0) -> Optional[float]:
        """Take ``amount`` tokens at virtual instant ``now_ms``.

        Returns ``None`` when admitted, or the ``retry_after_ms`` hint
        when rejected — the virtual time until refill covers the
        deficit.  A rejected take never drives the balance negative.
        """
        self._refill(now_ms)
        if self.tokens >= amount:
            self.tokens -= amount
            self.taken += 1
            return None
        self.rejected += 1
        deficit = amount - self.tokens
        return deficit / self.config.rate_per_s * 1_000.0
