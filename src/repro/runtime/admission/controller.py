"""The admission controller: per-tenant throttling and storm detection.

One :class:`AdmissionController` guards one dispatcher.  At every
submission it charges the tenant's token bucket; an empty bucket turns
the submission into :class:`~repro.errors.ProxyThrottledError` (bridge
code 1013) carrying the exact ``retry_after_ms`` until the bucket can
cover it — the resilience plane's backoff honours the hint.

The controller also watches the *outcome stream* for storms: when the
throttle/shed decisions inside one sliding virtual-time window of
:data:`STORM_WINDOW_MS` reach :data:`STORM_THRESHOLD`, it records a
storm incident (surfaced by the workforce fleet as a ``[fleet-alert]``
line) and triggers a flight-recorder dump — sustained shedding is
exactly the moment an operator wants the moments-before buffer
captured.

Determinism: buckets are pure functions of the submission sequence,
the storm window is virtual time, and storms are recorded in decision
order.
"""

from __future__ import annotations

import collections
from typing import Any, Deque, Dict, List, Optional

from repro.errors import ProxyThrottledError
from repro.runtime.admission.bucket import TokenBucket, TokenBucketConfig
from repro.runtime.admission.priority import priority_name

#: The default tenant key for submissions that declare none.
DEFAULT_TENANT = "default"

#: The sliding virtual-time window of the storm count.
STORM_WINDOW_MS = 1_000.0

#: Throttle and shed decisions inside one window that make a storm.
STORM_THRESHOLD = 8


class AdmissionController:
    """Per-tenant token buckets plus storm bookkeeping for one platform.

    Parameters
    ----------
    bucket:
        Budget applied to every tenant; ``None`` disables throttling
        (priority shedding and leveling still apply).
    """

    def __init__(
        self,
        *,
        platform: str,
        clock,
        metrics,
        bucket: Optional[TokenBucketConfig],
        observability=None,
    ) -> None:
        self.platform = platform
        self._clock = clock
        self._metrics = metrics
        self._bucket_config = bucket
        self._buckets: Dict[str, TokenBucket] = {}
        self._obs = observability
        self._window: Deque[float] = collections.deque()
        self._storm_open = False
        #: Storm incidents in decision order (the fleet's alert source).
        self.storms: List[Dict[str, Any]] = []
        self.throttled = 0

    # -- buckets -------------------------------------------------------------

    def bucket_for(self, tenant: str) -> Optional[TokenBucket]:
        config = self._bucket_config
        if config is None:
            return None
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(config, now_ms=self._clock.now_ms)
            self._buckets[tenant] = bucket
        return bucket

    def buckets(self) -> Dict[str, TokenBucket]:
        return dict(self._buckets)

    def admit(
        self, tenant: str, operation: str, priority: int
    ) -> Optional[ProxyThrottledError]:
        """Charge ``tenant``'s bucket for one submission.

        Returns ``None`` when within budget, or the ready-to-deliver
        1013 error (with ``retry_after_ms`` and structured context)
        when over it.
        """
        bucket = self.bucket_for(tenant)
        if bucket is None:
            return None
        now = self._clock.now_ms
        retry_after = bucket.try_take(now)
        self._metrics.gauge(
            "admission.tokens", source=self.platform, tenant=tenant
        ).set(bucket.tokens)
        if retry_after is None:
            return None
        self.throttled += 1
        self._metrics.counter(
            "admission.throttled", source=self.platform, tenant=tenant
        ).inc()
        context = {
            "platform": self.platform,
            "tenant": tenant,
            "operation": operation,
            "priority": priority_name(priority),
            "retry_after_ms": round(retry_after, 6),
            "tokens": round(bucket.tokens, 6),
        }
        self.record_rejection("throttled", tenant=tenant, operation=operation)
        return ProxyThrottledError(
            f"{operation} throttled: tenant {tenant!r} over budget on "
            f"{self.platform} (retry after {retry_after:.1f}ms)",
            retry_after_ms=retry_after,
            context=context,
        )

    # -- storm detection -----------------------------------------------------

    def record_rejection(self, kind: str, **attributes: Any) -> None:
        """Feed one throttle/shed decision into the storm window."""
        now = self._clock.now_ms
        window = self._window
        window.append(now)
        floor = now - STORM_WINDOW_MS
        while window and window[0] < floor:
            window.popleft()
        if len(window) < STORM_THRESHOLD:
            self._storm_open = False
            return
        if self._storm_open:
            self.storms[-1]["rejections"] += 1
            return
        # Edge-triggered: one storm record per crossing, not per shed.
        self._storm_open = True
        storm = {
            "t_ms": round(now, 6),
            "platform": self.platform,
            "kind": kind,
            "rejections": len(window),
            "window_ms": round(STORM_WINDOW_MS, 6),
        }
        storm.update(attributes)
        self.storms.append(storm)
        self._metrics.counter("admission.storms", source=self.platform).inc()
        if self._obs is not None and self._obs.flight is not None:
            flight = self._obs.flight
            flight.note(
                "admission.storm",
                platform=self.platform,
                kind=kind,
                rejections=len(window),
            )
            flight.trigger(
                "admission.storm", platform=self.platform, kind=kind
            )
