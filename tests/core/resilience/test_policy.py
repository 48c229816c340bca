"""ResilienceRuntime.execute: retry, timeout, breaker, fallback layers."""

import pytest

from repro.core.proxies import standard_registry
from repro.core.resilience import (
    LAST_RESULT,
    UNHANDLED,
    BackoffSchedule,
    BreakerConfig,
    BreakerState,
    ResiliencePolicy,
    ResilienceRuntime,
    chaos_policy,
)
from repro.errors import (
    ConfigurationError,
    ProxyCircuitOpenError,
    ProxyError,
    ProxyPermissionError,
    ProxyTimeoutError,
    ProxyTransientError,
)
from repro.util.clock import Scheduler, SimulatedClock
from repro.util.idempotency import chain_context, current_chain, next_chain_sequence


@pytest.fixture
def binding():
    return standard_registry().binding("Http", "android")


def _runtime(policy=None, *, scheduler=None, label="test"):
    scheduler = scheduler or Scheduler(SimulatedClock())
    return ResilienceRuntime(policy or ResiliencePolicy(), scheduler, label=label)


class _Flaky:
    """Thunk that fails ``failures`` times before returning ``value``."""

    def __init__(self, failures, value="ok", error=ProxyTransientError):
        self.failures = failures
        self.value = value
        self.error = error
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.error(f"injected failure #{self.calls}")
        return self.value


class TestPassthroughDefault:
    def test_success(self, binding):
        runtime = _runtime()
        assert runtime.execute(binding, "get", lambda: 42) == 42
        assert runtime.stats.attempts == 1
        assert runtime.stats.successes == 1
        assert runtime.stats.failures == 0

    def test_single_attempt_failure_raises_unchanged(self, binding):
        runtime = _runtime()
        thunk = _Flaky(failures=5)
        with pytest.raises(ProxyTransientError):
            runtime.execute(binding, "get", thunk)
        assert thunk.calls == 1
        assert runtime.stats.retries == 0

    def test_platform_exception_is_mapped(self, binding):
        runtime = _runtime()

        def boom():
            raise ValueError("raw platform failure")

        with pytest.raises(ProxyError) as excinfo:
            runtime.execute(binding, "get", boom)
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_fallback_ignored_when_disabled(self, binding):
        runtime = _runtime()  # fallbacks_enabled=False by default
        with pytest.raises(ProxyTransientError):
            runtime.execute(
                binding, "get", _Flaky(failures=1), fallback=lambda error: "degraded"
            )
        assert runtime.stats.fallbacks_served == 0


class TestRetry:
    def _retry_policy(self, attempts=3):
        return ResiliencePolicy(
            max_attempts=attempts, backoff=BackoffSchedule.fixed(100.0)
        )

    def test_transient_failures_retried_until_success(self, binding):
        scheduler = Scheduler(SimulatedClock())
        runtime = _runtime(self._retry_policy(), scheduler=scheduler)
        thunk = _Flaky(failures=2)
        assert runtime.execute(binding, "get", thunk) == "ok"
        assert thunk.calls == 3
        assert runtime.stats.retries == 2
        # backoff advanced virtual time, never wall time
        assert scheduler.clock.now_ms == 200.0

    def test_exhausted_retries_raise_last_error(self, binding):
        runtime = _runtime(self._retry_policy(attempts=2))
        with pytest.raises(ProxyTransientError, match="#2"):
            runtime.execute(binding, "get", _Flaky(failures=10))
        assert runtime.stats.attempts == 2

    def test_permanent_errors_never_retried(self, binding):
        runtime = _runtime(self._retry_policy())
        thunk = _Flaky(failures=1, error=ProxyPermissionError)
        with pytest.raises(ProxyPermissionError):
            runtime.execute(binding, "get", thunk)
        assert thunk.calls == 1
        assert runtime.stats.retries == 0

    def test_jitter_is_deterministic_per_seed_and_label(self, binding):
        policy = ResiliencePolicy(
            max_attempts=4,
            backoff=BackoffSchedule(
                initial_delay_ms=100.0,
                multiplier=2.0,
                max_delay_ms=5_000.0,
                jitter=0.5,
            ),
            seed=7,
        )
        elapsed = []
        for _ in range(2):
            scheduler = Scheduler(SimulatedClock())
            runtime = _runtime(policy, scheduler=scheduler, label="fixed-label")
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", _Flaky(failures=10))
            elapsed.append(scheduler.clock.now_ms)
        assert elapsed[0] == elapsed[1]


class TestTimeout:
    def test_slow_success_becomes_timeout(self, binding):
        scheduler = Scheduler(SimulatedClock())
        runtime = _runtime(
            ResiliencePolicy(timeout_ms=50.0), scheduler=scheduler
        )

        def slow():
            scheduler.clock.advance(100.0)
            return "too late"

        with pytest.raises(ProxyTimeoutError):
            runtime.execute(binding, "get", slow)
        assert runtime.stats.timeouts == 1

    def test_fast_success_within_budget(self, binding):
        scheduler = Scheduler(SimulatedClock())
        runtime = _runtime(
            ResiliencePolicy(timeout_ms=50.0), scheduler=scheduler
        )

        def fast():
            scheduler.clock.advance(10.0)
            return "in time"

        assert runtime.execute(binding, "get", fast) == "in time"
        assert runtime.stats.timeouts == 0


class TestBreaker:
    def _breaker_policy(self, **kwargs):
        return ResiliencePolicy(
            breaker=BreakerConfig(
                failure_threshold=2, reset_timeout_ms=1_000.0, half_open_successes=1
            ),
            **kwargs,
        )

    def test_open_breaker_rejects_without_invoking(self, binding):
        runtime = _runtime(self._breaker_policy())
        for _ in range(2):
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", _Flaky(failures=1))
        thunk = _Flaky(failures=0)
        with pytest.raises(ProxyCircuitOpenError):
            runtime.execute(binding, "get", thunk)
        assert thunk.calls == 0
        assert runtime.stats.circuit_rejections == 1

    def test_breakers_are_per_operation(self, binding):
        runtime = _runtime(self._breaker_policy())
        for _ in range(2):
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", _Flaky(failures=1))
        # "post" has its own breaker and still executes
        assert runtime.execute(binding, "post", lambda: "ok") == "ok"

    def test_half_open_probe_recovers(self, binding):
        scheduler = Scheduler(SimulatedClock())
        runtime = _runtime(self._breaker_policy(), scheduler=scheduler)
        for _ in range(2):
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", _Flaky(failures=1))
        scheduler.clock.advance(1_000.0)
        assert runtime.execute(binding, "get", lambda: "recovered") == "recovered"
        assert runtime.breaker_for("get").state is BreakerState.CLOSED

    def test_transitions_surface_operation_labels(self, binding):
        runtime = _runtime(self._breaker_policy())
        for _ in range(2):
            with pytest.raises(ProxyTransientError):
                runtime.execute(binding, "get", _Flaky(failures=1))
        transitions = runtime.breaker_transitions()
        assert transitions
        operation, _, frm, to = transitions[0]
        assert operation == "get"
        assert (frm, to) == (BreakerState.CLOSED, BreakerState.OPEN)

    def test_open_breaker_stops_retry_loop(self, binding):
        runtime = _runtime(
            self._breaker_policy(
                max_attempts=10, backoff=BackoffSchedule.fixed(1.0)
            )
        )
        thunk = _Flaky(failures=100)
        with pytest.raises(ProxyTransientError):
            runtime.execute(binding, "get", thunk)
        # breaker opened after 2 failures and cut the remaining 8 attempts
        assert thunk.calls == 2


class TestFallbacks:
    def _fallback_policy(self, **kwargs):
        return ResiliencePolicy(fallbacks_enabled=True, **kwargs)

    def test_last_result_served_after_failure(self, binding):
        runtime = _runtime(self._fallback_policy())
        assert runtime.execute(binding, "get", lambda: "fresh") == "fresh"
        served = runtime.execute(
            binding, "get", _Flaky(failures=1), fallback=LAST_RESULT
        )
        assert served == "fresh"
        assert runtime.stats.fallbacks_served == 1

    def test_last_result_declines_without_history(self, binding):
        runtime = _runtime(self._fallback_policy())
        with pytest.raises(ProxyTransientError):
            runtime.execute(
                binding, "get", _Flaky(failures=1), fallback=LAST_RESULT
            )

    def test_callable_fallback_receives_error(self, binding):
        runtime = _runtime(self._fallback_policy())
        seen = []

        def fallback(error):
            seen.append(error)
            return "degraded"

        assert (
            runtime.execute(binding, "get", _Flaky(failures=1), fallback=fallback)
            == "degraded"
        )
        assert isinstance(seen[0], ProxyTransientError)

    def test_callable_fallback_may_decline(self, binding):
        runtime = _runtime(self._fallback_policy())
        with pytest.raises(ProxyTransientError):
            runtime.execute(
                binding,
                "get",
                _Flaky(failures=1),
                fallback=lambda error: UNHANDLED,
            )
        assert runtime.stats.fallbacks_served == 0

    def test_circuit_rejection_reaches_fallback(self, binding):
        runtime = _runtime(
            self._fallback_policy(
                breaker=BreakerConfig(
                    failure_threshold=1,
                    reset_timeout_ms=1_000.0,
                    half_open_successes=1,
                )
            )
        )
        with pytest.raises(ProxyTransientError):
            runtime.execute(binding, "get", _Flaky(failures=1))
        served = runtime.execute(
            binding,
            "get",
            lambda: "never runs",
            fallback=lambda error: f"degraded: {type(error).__name__}",
        )
        assert served == "degraded: ProxyCircuitOpenError"


class TestAttemptChain:
    """Every execution opens one attempt chain and always closes it."""

    @pytest.mark.parametrize(
        "error, escapes_as",
        [(ValueError, ProxyError), (KeyboardInterrupt, KeyboardInterrupt)],
    )
    def test_chain_closes_when_the_thunk_raises(self, binding, error, escapes_as):
        runtime = _runtime()

        def thunk():
            assert current_chain() is not None
            raise error("boom")

        with pytest.raises(escapes_as):
            runtime.execute(binding, "get", thunk)
        assert current_chain() is None

    def test_key_and_tag_formats(self, binding):
        runtime = _runtime(label="Sms/android")
        seen = []

        def thunk():
            chain = current_chain()
            seen.append((chain.key, chain.tag, chain.tracer))

        last = next_chain_sequence()
        runtime.execute(binding, "sendTextMessage", thunk)
        runtime.execute(binding, "sendTextMessage", thunk)
        prefix = "Sms/android:sendTextMessage"
        assert seen == [
            (f"{prefix}:{last + 1}", f"{prefix}#1", None),
            (f"{prefix}:{last + 2}", f"{prefix}#2", None),
        ]
        assert current_chain() is None

    def test_an_open_chain_is_ridden(self, binding):
        outer, inner = _runtime(label="outer"), _runtime(label="inner")
        seen = []

        def inner_thunk():
            seen.append(current_chain())

        outer.execute(
            binding, "get", lambda: inner.execute(binding, "get", inner_thunk)
        )
        with chain_context("caller-key") as opened:
            inner.execute(binding, "get", inner_thunk)
        assert seen[0].tag == "outer:get#1"
        assert seen[1] is opened and seen[1].key == "caller-key" and seen[1].tag is None
        # Riding mints nothing: the inner runtime's first own chain is #1.
        inner.execute(binding, "get", inner_thunk)
        assert seen[2].tag == "inner:get#1"


class TestPolicyConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(timeout_ms=0.0)

    def test_chaos_policy_profile(self):
        policy = chaos_policy("Sms", seed=3)
        assert policy.max_attempts == 4
        assert policy.breaker is not None
        assert policy.fallbacks_enabled
        assert policy.redelivery is not None
        assert policy.seed == 3
        assert chaos_policy("Http").redelivery is None
