"""Resilience policies and their per-proxy execution runtime.

A :class:`ResiliencePolicy` is immutable configuration; a
:class:`ResilienceRuntime` is the stateful engine one proxy instance
carries (attached by the factory).  ``MProxy._call`` routes every
public operation through :meth:`ResilienceRuntime.execute`, which
layers — in order — circuit breaking, invocation, uniform exception
mapping, elapsed-virtual-time timeout, classified retry with backoff,
and graceful-degradation fallbacks.

Determinism contract: retry jitter comes from one RNG per runtime,
seeded from ``policy.seed`` and the runtime's label; all delays advance
the device's virtual clock (never wall time).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Union

from repro.core.descriptor.model import BindingPlane
from repro.core.proxy.exceptions import map_platform_exception
from repro.core.resilience.backoff import BackoffSchedule
from repro.core.resilience.breaker import BreakerConfig, CircuitBreaker
from repro.core.resilience.fallbacks import (
    LAST_RESULT,
    UNHANDLED,
    RedeliveryConfig,
)
from repro.errors import (
    ConfigurationError,
    ProxyCircuitOpenError,
    ProxyError,
    ProxyTimeoutError,
)
from repro.obs import MetricsRegistry, NOOP_TRACER, Observability
from repro.obs.metrics import Counter
from repro.util.clock import Scheduler
from repro.util.idempotency import CHAIN_STACK, ChainContext, next_chain_sequence

#: A fallback is either the LAST_RESULT sentinel or ``f(error) -> value``
#: (returning ``UNHANDLED`` to decline).
Fallback = Union[str, Callable[[ProxyError], Any]]

_NO_FALLBACK = object()


@dataclass(frozen=True)
class ResiliencePolicy:
    """Per-binding resilience configuration.

    The default policy is *passthrough-safe*: one attempt, no timeout,
    no breaker, fallbacks disabled — byte-for-byte the behaviour of a
    bare proxy's ``_call``, plus counters.  Chaos profiles opt into the heavier
    machinery via :func:`chaos_policy`.
    """

    max_attempts: int = 1
    backoff: BackoffSchedule = field(default_factory=BackoffSchedule)
    timeout_ms: Optional[float] = None
    breaker: Optional[BreakerConfig] = None
    fallbacks_enabled: bool = False
    redelivery: Optional[RedeliveryConfig] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.timeout_ms is not None and self.timeout_ms <= 0:
            raise ConfigurationError("timeout_ms must be positive when given")


def chaos_policy(interface: str, *, seed: int = 0) -> ResiliencePolicy:
    """The standard hardened profile chaos scenarios attach per proxy.

    Bounded retries with exponential backoff + jitter, a per-operation
    breaker, and interface-appropriate fallbacks (SMS gets a redelivery
    queue; Location serves last-known via its call sites' LAST_RESULT).
    """
    return ResiliencePolicy(
        max_attempts=4,
        backoff=BackoffSchedule(
            initial_delay_ms=200.0, multiplier=2.0, max_delay_ms=5_000.0, jitter=0.25
        ),
        timeout_ms=30_000.0,
        breaker=BreakerConfig(
            failure_threshold=5, reset_timeout_ms=30_000.0, half_open_successes=1
        ),
        fallbacks_enabled=True,
        redelivery=RedeliveryConfig() if interface == "Sms" else None,
        seed=seed,
    )


#: The counter fields every runtime tracks, in report order.
STAT_FIELDS = (
    "attempts",
    "successes",
    "failures",
    "retries",
    "timeouts",
    "circuit_rejections",
    "fallbacks_served",
)


class ResilienceStats:
    """Counters one runtime accumulates (reported via repro.obs.report).

    Since the observability plane landed these are a *view* over
    ``resilience.<field>{runtime=<label>}`` series in a
    :class:`~repro.obs.MetricsRegistry` — the same numbers appear in
    registry snapshots, in :func:`~repro.obs.report.resilience_report`
    and on this object's attributes.  A stats object created without a
    registry (unit tests, hand-built runtimes) gets a private one.
    """

    __slots__ = ("_counters",)

    def __init__(
        self, registry: Optional[MetricsRegistry] = None, label: str = "runtime"
    ) -> None:
        registry = registry if registry is not None else MetricsRegistry()
        self._counters = {
            field: registry.counter(f"resilience.{field}", runtime=label)
            for field in STAT_FIELDS
        }

    def inc(self, field: str, amount: int = 1) -> None:
        self._counters[field].inc(amount)

    def counter(self, field: str) -> Counter:
        """The registry counter behind ``field``, for callers that count
        on every call and hold it."""
        return self._counters[field]

    def __getattr__(self, name: str) -> int:
        try:
            return self._counters[name].value
        except KeyError:
            raise AttributeError(name) from None

    def as_dict(self) -> Dict[str, int]:
        return {field: self._counters[field].value for field in STAT_FIELDS}


class ResilienceRuntime:
    """The stateful engine attached to one proxy instance."""

    def __init__(
        self,
        policy: ResiliencePolicy,
        scheduler: Scheduler,
        *,
        label: str = "proxy",
        observability: Optional[Observability] = None,
    ) -> None:
        self.policy = policy
        self._scheduler = scheduler
        self._clock = scheduler.clock
        self.label = label
        self._obs = observability
        if observability is not None:
            self._metrics = observability.metrics
            self._tracer = observability.tracer
        else:
            self._metrics = MetricsRegistry()
            self._tracer = NOOP_TRACER
        self.stats = ResilienceStats(self._metrics, label)
        # The counters every execution moves, held to skip the lookup.
        self._attempts = self.stats.counter("attempts")
        self._successes = self.stats.counter("successes")
        self._failures = self.stats.counter("failures")
        self.breakers: Dict[str, CircuitBreaker] = {}
        self._last_results: Dict[str, Any] = {}
        self._jitter_rng = random.Random(f"{policy.seed}:{label}")
        # Per-instance chain ordinal: unlike the process-global chain
        # sequence (unique across runtimes, but not reproducible between
        # two same-seed runs in one interpreter), this resets with the
        # runtime, so the chain *tag* it mints is safe to stamp on spans.
        self._chain_seq = 0

    # -- introspection --------------------------------------------------------

    def breaker_for(self, operation: str) -> Optional[CircuitBreaker]:
        if self.policy.breaker is None:
            return None
        breaker = self.breakers.get(operation)
        if breaker is None:
            breaker = CircuitBreaker(
                self.policy.breaker,
                self._clock,
                on_transition=self._breaker_observer(operation),
            )
            self.breakers[operation] = breaker
        return breaker

    def _breaker_observer(self, operation: str):
        """Mirror breaker transitions as span events and metrics."""

        def observe(t_ms: float, frm, to) -> None:
            self._metrics.counter(
                "resilience.breaker_transitions",
                runtime=self.label,
                operation=operation,
                to=to.value,
            ).inc()
            self._tracer.event(
                "breaker.transition",
                operation=operation,
                from_state=frm.value,
                to_state=to.value,
            )
            if (
                to.value == "open"
                and self._obs is not None
                and self._obs.flight is not None
            ):
                self._obs.flight.trigger(
                    "breaker.open",
                    operation=operation,
                    runtime=self.label,
                    from_state=frm.value,
                )

        return observe

    def breaker_transitions(self) -> list:
        """Every breaker transition: (operation, t_ms, from, to)."""
        out = []
        for operation, breaker in self.breakers.items():
            for t_ms, frm, to in breaker.transitions:
                out.append((operation, t_ms, frm, to))
        out.sort(key=lambda item: item[1])
        return out

    def last_result(self, operation: str) -> Any:
        return self._last_results.get(operation)

    # -- execution ------------------------------------------------------------

    def execute(
        self,
        binding: BindingPlane,
        operation: str,
        thunk: Callable[[], Any],
        *,
        fallback: Optional[Fallback] = None,
    ) -> Any:
        """Run ``thunk`` under this runtime's policy.

        Raises only uniform :class:`ProxyError` subclasses; on exhausted
        transient retries an enabled fallback may absorb the failure.
        With tracing enabled the whole execution is one
        ``resilience:<operation>`` span, each attempt a child
        ``binding:<operation>`` span, and every policy decision (retry,
        timeout, rejection, fallback, breaker transition) a span event.

        Every execution also opens an **attempt chain** (see
        :mod:`repro.util.idempotency`): one idempotency key shared by
        all retries of this logical invocation, consulted by substrate
        write sites so a retried-but-already-applied write (``ack_lost``
        faults) is suppressed rather than duplicated.  When an outer
        runtime's chain is already open (WebView JS over Android) the
        inner execution rides it instead of minting a new key.
        """
        tracer = self._tracer
        # The chain is pushed and popped inline: through a generator-based
        # context manager it cost about a third of a passthrough execution.
        opened = not CHAIN_STACK
        if opened:
            self._chain_seq += 1
            CHAIN_STACK.append(
                ChainContext(
                    tracer=tracer if tracer.enabled else None,
                    origin=(
                        self.label, operation, next_chain_sequence(), self._chain_seq
                    ),
                )
            )
        try:
            if not tracer.enabled:
                return self._execute(binding, operation, thunk, fallback)
            with tracer.span(
                f"resilience:{operation}",
                runtime=self.label,
                max_attempts=self.policy.max_attempts,
            ):
                return self._execute(binding, operation, thunk, fallback)
        finally:
            if opened:
                CHAIN_STACK.pop()

    def _execute(
        self,
        binding: BindingPlane,
        operation: str,
        thunk: Callable[[], Any],
        fallback: Optional[Fallback],
    ) -> Any:
        policy = self.policy
        breaker = None if policy.breaker is None else self.breaker_for(operation)
        if breaker is not None and not breaker.allow():
            self.stats.inc("circuit_rejections")
            self._tracer.event("circuit.rejected", operation=operation)
            rejection = ProxyCircuitOpenError(
                f"{operation} rejected: circuit open for {self.label}"
            )
            served = self._try_fallback(operation, fallback, rejection)
            if served is not _NO_FALLBACK:
                return served
            raise rejection

        tracer = self._tracer
        retry_index = 0
        while True:
            self._attempts.inc()
            started_ms = self._clock.now_ms
            error: Optional[ProxyError] = None
            try:
                if tracer.enabled:
                    with tracer.span(f"binding:{operation}", attempt=retry_index + 1):
                        result = thunk()
                else:
                    result = thunk()
            except ProxyError as exc:
                error = exc
            except Exception as exc:
                error = map_platform_exception(binding, exc, operation)
            else:
                elapsed = self._clock.now_ms - started_ms
                if policy.timeout_ms is not None and elapsed > policy.timeout_ms:
                    self.stats.inc("timeouts")
                    self._tracer.event(
                        "timeout", operation=operation, elapsed_ms=elapsed
                    )
                    error = ProxyTimeoutError(
                        f"{operation} took {elapsed:.0f}ms of virtual time "
                        f"(budget {policy.timeout_ms:.0f}ms)"
                    )
                else:
                    self._successes.inc()
                    if breaker is not None:
                        breaker.record_success()
                    self._last_results[operation] = result
                    return result

            self._failures.inc()
            if breaker is not None:
                breaker.record_failure(transient=error.transient)
            attempts_left = policy.max_attempts - (retry_index + 1)
            may_retry = (
                error.transient
                and attempts_left > 0
                and (breaker is None or breaker.allow())
            )
            if may_retry:
                self.stats.inc("retries")
                delay = policy.backoff.delay_ms(retry_index, self._jitter_rng)
                # Admission throttles (1013) say exactly when the token
                # bucket can cover a retry; backing off for less would
                # guarantee another rejection, so the hint is a floor.
                retry_after = getattr(error, "retry_after_ms", None)
                if retry_after is not None and retry_after > delay:
                    delay = float(retry_after)
                    self._tracer.event(
                        "retry.after_hint",
                        operation=operation,
                        retry_after_ms=delay,
                    )
                self._tracer.event(
                    "retry",
                    operation=operation,
                    attempt=retry_index + 2,
                    delay_ms=delay,
                )
                if delay > 0:
                    self._clock.advance(delay)
                retry_index += 1
                continue
            served = self._try_fallback(operation, fallback, error)
            if served is not _NO_FALLBACK:
                return served
            raise error

    def _try_fallback(
        self, operation: str, fallback: Optional[Fallback], error: ProxyError
    ) -> Any:
        if not self.policy.fallbacks_enabled or fallback is None:
            return _NO_FALLBACK
        if fallback == LAST_RESULT:
            if operation not in self._last_results:
                return _NO_FALLBACK
            self.stats.inc("fallbacks_served")
            self._tracer.event(
                "fallback.served", operation=operation, kind="last_result"
            )
            return self._last_results[operation]
        value = fallback(error)
        if value is UNHANDLED:
            return _NO_FALLBACK
        self.stats.inc("fallbacks_served")
        self._tracer.event("fallback.served", operation=operation, kind="callable")
        return value
