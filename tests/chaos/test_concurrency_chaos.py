"""Chaos under concurrency: fault plans composed with the runtime.

The resilience plane was proven against *sequential* fault injection;
this suite drives faulted proxies through the sharded dispatcher and
checks the two planes compose:

* transient faults surface only as uniform :class:`ProxyError`s on
  futures (or as degraded responses) — never as raw platform exceptions,
  and never as a wedged lane;
* a sustained blackout makes the breaker open *behind* the bounded
  queue: excess load is shed at admission and rejected by the open
  circuit, instead of stampeding the dead substrate with retries;
* the whole composition stays deterministic under fixed seeds.
"""

import pytest

from repro.apps.workforce import scenario
from repro.apps.workforce.common import PATH_REPORT_LOCATION, SERVER_HOST, encode
from repro.apps.workforce.proxied import launch_on_android
from repro.core.resilience import BreakerState, chaos_policy
from repro.errors import ProxyError, ProxyOverloadError
from repro.faults import FaultPlan
from repro.obs import Observability
from repro.runtime import ConcurrencyRuntime

from tests.chaos.drivers import WARMUP_MS, transient_plan

pytestmark = [pytest.mark.chaos, pytest.mark.concurrency]

REPORT_URL = f"http://{SERVER_HOST}{PATH_REPORT_LOCATION}"


def build_faulted_runtime(plan, *, shards=2, queue_depth=8, seed=3):
    hub = Observability()
    sc = scenario.build_android(fault_plan=plan, observability=hub)
    logic = launch_on_android(
        sc.platform,
        sc.new_context(),
        sc.config,
        resilience=lambda interface: chaos_policy(interface, seed=seed),
    )
    sc.platform.run_for(WARMUP_MS)
    runtime = ConcurrencyRuntime(
        sc.device.scheduler,
        shards=shards,
        queue_depth=queue_depth,
        seed=seed,
        observability=hub,
    )
    return sc, logic, runtime


def submit_report_burst(sc, logic, runtime, count):
    body = encode({"agent": "agent-42", "latitude": 28.6, "longitude": 77.2})
    dispatcher = runtime.dispatcher("android")
    futures = [
        dispatcher.submit(
            "post", lambda: logic.http.post(REPORT_URL, body), tracer=None
        )
        for _ in range(count)
    ]
    runtime.drain()
    return dispatcher, futures


class TestTransientFaultsCompose:
    @pytest.fixture(scope="class")
    def shaken(self):
        sc, logic, runtime = build_faulted_runtime(
            transient_plan(0.2, seed=5), queue_depth=32, seed=5
        )
        dispatcher, futures = submit_report_burst(sc, logic, runtime, 12)
        return sc, logic, runtime, dispatcher, futures

    def test_every_future_settles(self, shaken):
        *_, futures = shaken
        assert all(future.done() for future in futures)

    def test_only_uniform_errors_escape(self, shaken):
        *_, futures = shaken
        for future in futures:
            if future.error is not None:
                assert isinstance(future.error, ProxyError)

    def test_lanes_drain_despite_faults(self, shaken):
        sc, logic, runtime, dispatcher, futures = shaken
        assert dispatcher.idle
        assert sum(dispatcher.executed_per_shard()) == len(futures)

    def test_retries_happened_under_the_dispatcher(self, shaken):
        sc, logic, *_ = shaken
        totals = logic.http.resilience.stats.as_dict()
        assert totals["retries"] > 0


class TestBlackoutShedsNotStampedes:
    BURST = 20
    DEPTH = 6

    @pytest.fixture(scope="class")
    def blackout(self):
        sc, logic, runtime = build_faulted_runtime(
            FaultPlan.network_blackout(0.0, seed=4),
            shards=1,
            queue_depth=self.DEPTH,
            seed=4,
        )
        dispatcher, futures = submit_report_burst(sc, logic, runtime, self.BURST)
        return sc, logic, runtime, dispatcher, futures

    def test_admission_control_sheds_the_excess(self, blackout):
        *_, dispatcher, futures = blackout
        shed = [f for f in futures if isinstance(f.error, ProxyOverloadError)]
        assert len(shed) == self.BURST - self.DEPTH
        assert dispatcher.shed_count == self.BURST - self.DEPTH

    def test_breaker_opens_behind_the_queue(self, blackout):
        sc, logic, *_ = blackout
        runtime = logic.http.resilience
        transitions = runtime.breaker_transitions()
        assert any(to is BreakerState.OPEN for _, _, _, to in transitions)
        assert runtime.stats.as_dict()["circuit_rejections"] > 0

    def test_no_retry_stampede(self, blackout):
        """The two backpressure layers multiply: shedding caps how many
        invocations reach the resilience plane, and the open breaker
        caps how many attempts reach the substrate.  Without them a
        20-request burst could fire 80 substrate attempts."""
        sc, logic, *_ = blackout
        totals = logic.http.resilience.stats.as_dict()
        assert totals["attempts"] < self.BURST
        assert totals["attempts"] < 4 * self.DEPTH

    def test_admitted_requests_still_answered(self, blackout):
        *_, futures = blackout
        admitted = [f for f in futures if not isinstance(f.error, ProxyOverloadError)]
        # fallbacks convert breaker rejections into degraded 503s, so
        # the admitted requests resolve instead of crashing the agent
        assert admitted and all(f.done() for f in admitted)
        for future in admitted:
            if future.error is None:
                assert future.value.status in (200, 503)


class TestChaosDeterminism:
    def _outcome(self):
        sc, logic, runtime = build_faulted_runtime(
            transient_plan(0.3, seed=9), queue_depth=8, seed=9
        )
        dispatcher, futures = submit_report_burst(sc, logic, runtime, 12)
        totals = logic.http.resilience.stats.as_dict()
        return {
            "clock": sc.platform.clock.now_ms,
            "per_shard": dispatcher.executed_per_shard(),
            "shed": dispatcher.shed_count,
            "errors": [
                type(f.error).__name__ if f.error else None for f in futures
            ],
            "totals": dict(totals),
        }

    def test_identical_seeds_identical_outcomes(self):
        assert self._outcome() == self._outcome()
