"""Sustained total network outage: the breaker must open and degrade.

Under a 100% drop plan every HTTP attempt fails.  The acceptance bar is
that the middleware stops retry-storming: the circuit opens after the
configured failure threshold, subsequent calls are rejected without
touching the substrate, and the degraded-response fallback keeps the app
alive (it logs ``log-failed`` instead of crashing).
"""

import pytest

from repro.core.resilience import BreakerState
from repro.faults import FaultPlan

from tests.chaos.drivers import run_android

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def blackout_run():
    run = run_android(FaultPlan.network_blackout(0.0, seed=4), seed=4)
    # Two more back-to-back reports inside the breaker's reset window:
    # the circuit is open, so these must be rejected without ever
    # touching the substrate (degraded responses keep the app alive).
    run.logic.report_location()
    run.logic.report_location()
    return run


class TestBreakerOpens:
    def test_circuit_opened(self, blackout_run):
        transitions = blackout_run.summary()["breakers"]
        flat = [t for per_label in transitions.values() for t in per_label]
        assert any(to == BreakerState.OPEN.value for _, _, _, to in flat)

    def test_rejections_replace_substrate_calls(self, blackout_run):
        totals = blackout_run.totals()
        assert totals["circuit_rejections"] > 0

    def test_fallback_serves_degraded_responses(self, blackout_run):
        totals = blackout_run.totals()
        assert totals["fallbacks_served"] > 0
        # the app observed the degradation but kept running
        assert "log-failed" in blackout_run.logic.activity_events

    def test_app_survives_to_completion(self, blackout_run):
        assert "arrived" in blackout_run.logic.activity_events
        assert blackout_run.surfaced == []

    def test_attempts_are_bounded_not_storming(self, blackout_run):
        """With the breaker open, most calls never reach the substrate:
        total substrate attempts stay far below what unbounded retrying
        of every failed call would produce."""
        totals = blackout_run.totals()
        invocations = totals["failures"] + totals["circuit_rejections"]
        assert invocations > 0
        # chaos_policy retries up to 4 attempts per invocation; the open
        # breaker must cut that multiplier down, not amplify it
        assert totals["attempts"] < 4 * invocations
