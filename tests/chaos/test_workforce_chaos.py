"""Workforce under seeded transient fault plans, on every platform.

The acceptance bar: with :func:`chaos_policy` attached, the app's
business logic completes the commute (the agent *arrives*), and nothing
but uniform :class:`ProxyError` subclasses ever reaches the app surface
— the fault plane shakes the substrate, the resilience layer absorbs it.
"""

import pytest

from repro.errors import ProxyError

from tests.chaos.drivers import DRIVERS, PLATFORMS, transient_plan

pytestmark = pytest.mark.chaos

RATES = (0.10, 0.30)


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize("rate", RATES)
class TestTransientPlans:
    def test_commute_completes(self, platform, rate):
        run = DRIVERS[platform](transient_plan(rate, seed=1), seed=1)
        assert "arrived" in run.logic.activity_events
        # only uniform errors may surface, and under a transient plan with
        # retries + fallbacks none should need to
        assert run.surfaced == []

    def test_faults_were_actually_injected(self, platform, rate):
        run = DRIVERS[platform](transient_plan(rate, seed=1), seed=1)
        assert run.injector.total_injected() > 0

    def test_resilience_absorbed_the_faults(self, platform, rate):
        run = DRIVERS[platform](transient_plan(rate, seed=1), seed=1)
        totals = run.totals()
        assert totals["successes"] > 0
        # at least some failures were seen and retried by the runtimes
        # (GPS faults are absorbed below the proxy layer, but network or
        # sms or bridge faults hit the proxies on every platform)
        assert totals["attempts"] >= totals["successes"]

    def test_retries_are_bounded(self, platform, rate):
        run = DRIVERS[platform](transient_plan(rate, seed=1), seed=1)
        totals = run.totals()
        # chaos_policy allows max_attempts=4: never more than 3 retries
        # per invocation, so retries stay well under total attempts
        assert totals["retries"] <= 3 * (totals["successes"] + totals["failures"])


@pytest.mark.parametrize("platform", PLATFORMS)
class TestFaultFree:
    def test_zero_rate_plan_is_a_clean_run(self, platform):
        run = DRIVERS[platform](transient_plan(0.0, seed=1), seed=1)
        assert run.injector.total_injected() == 0
        assert run.logic.activity_events == ["arrived", "departed", "arrived"]
        totals = run.totals()
        assert totals["failures"] == 0
        assert totals["retries"] == 0


class TestCallProxyUnderFaults:
    """Call has no workforce role; exercise it directly where it exists."""

    @pytest.mark.parametrize("platform", ["android", "webview"])
    def test_call_completes_or_surfaces_uniform_error(self, platform):
        from repro.apps.workforce import scenario
        from repro.core.proxies import create_proxy
        from repro.core.resilience import chaos_policy

        if platform == "android":
            sc = scenario.build_android(
                fault_plan=transient_plan(0.3, seed=2)
            )
            call = create_proxy("Call", sc.platform, resilience=chaos_policy("Call"))
            call.set_property("context", sc.new_context())
        else:
            sc = scenario.build_webview(
                fault_plan=transient_plan(0.3, seed=2)
            )
            from repro.core.plugin.packaging import WebViewPlatformExtension

            webview = sc.platform.new_webview()
            WebViewPlatformExtension().install_wrappers(
                webview, sc.platform, sc.new_context(), ["Call"]
            )
            holder = {}
            webview.load_page(
                lambda window: holder.update(
                    call=create_proxy(
                        "Call", sc.platform, resilience=chaos_policy("Call")
                    )
                )
            )
            call = holder["call"]
        for _ in range(5):
            handle = None
            try:
                handle = call.make_a_call("+915550001")
            except ProxyError:
                pass  # uniform surface — acceptable under 30% faults
            sc.platform.run_for(5_000.0)
            if handle is not None:
                try:
                    call.end_call(handle)
                except ProxyError:
                    pass
        stats = call.resilience.stats
        assert stats.attempts >= 5
        assert stats.successes + stats.failures == stats.attempts
