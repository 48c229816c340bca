"""Cross-proxy resilience: retry, timeout, circuit breaking, fallback.

The paper's Call proxy retry coordinator showed one interface-specific
enrichment; this package generalizes the idea into middleware-wide
machinery every binding gets through ``MProxy._call``:

* :class:`~repro.core.resilience.backoff.BackoffSchedule` — exponential
  backoff with deterministic jitter, all in virtual milliseconds;
* :class:`~repro.core.resilience.breaker.CircuitBreaker` — per-operation
  closed/open/half-open breaker on the virtual clock;
* :class:`~repro.core.resilience.policy.ResiliencePolicy` /
  :class:`~repro.core.resilience.policy.ResilienceRuntime` — the
  per-proxy execution engine combining the above with timeouts and
  graceful-degradation fallbacks;
* :class:`~repro.core.resilience.fallbacks.SmsRedeliveryQueue` — the
  store-and-retry fallback for SMS when the carrier is unreachable.
"""

from repro.core.resilience.backoff import BackoffSchedule
from repro.core.resilience.breaker import BreakerConfig, BreakerState, CircuitBreaker
from repro.core.resilience.fallbacks import (
    LAST_RESULT,
    UNHANDLED,
    RedeliveryConfig,
    SmsRedeliveryQueue,
)
from repro.core.resilience.policy import (
    ResiliencePolicy,
    ResilienceRuntime,
    ResilienceStats,
    chaos_policy,
)

__all__ = [
    "BackoffSchedule",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "LAST_RESULT",
    "RedeliveryConfig",
    "ResiliencePolicy",
    "ResilienceRuntime",
    "ResilienceStats",
    "SmsRedeliveryQueue",
    "UNHANDLED",
    "chaos_policy",
]
