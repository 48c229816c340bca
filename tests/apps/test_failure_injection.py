"""Failure injection: the proxied app under degraded conditions.

The uniform error surface must hold up when the world misbehaves —
network loss, SMSC failures, out-of-service location providers — on every
platform.
"""

import pytest

from repro.apps.workforce import scenario
from repro.apps.workforce.proxied import launch_on_android, launch_on_s60
from repro.core.proxies import create_proxy
from repro.errors import ProxyPlatformError


class TestNetworkLoss:
    def test_report_failure_surfaces_as_event_android(self):
        sc = scenario.build_android()
        logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
        sc.platform.run_for(10_000.0)
        sc.device.network.fail_next("cell handover")
        with pytest.raises(ProxyPlatformError):
            logic.report_location()
        # subsequent reports recover
        logic.report_location()
        assert sc.server.track_of(sc.config.agent.agent_id).report_count == 1

    def test_report_failure_surfaces_uniformly_s60(self):
        sc = scenario.build_s60()
        logic = launch_on_s60(sc.platform, sc.config)
        sc.platform.run_for(10_000.0)
        sc.device.network.fail_next("tunnel")
        with pytest.raises(ProxyPlatformError):
            logic.report_location()

    def test_same_uniform_error_class_on_both_platforms(self):
        """Different native exceptions (Apache IOException vs GCF
        IOException), one uniform error type."""
        errors = []
        for build, launch in (
            (scenario.build_android, None),
            (scenario.build_s60, None),
        ):
            sc = build()
            proxy = create_proxy("Http", sc.platform)
            if sc.platform.platform_name == "android":
                proxy.set_property("context", sc.new_context())
            sc.device.network.add_server("api.test")
            sc.device.network.fail_next("boom")
            try:
                proxy.get("http://api.test/x")
            except ProxyPlatformError as error:
                errors.append(type(error))
        # De-fragmentation: both platforms raise the SAME uniform class
        # (the transient-refined ProxyNetworkError), still within the
        # ProxyPlatformError surface applications already handle.
        assert len(errors) == 2
        assert errors[0] is errors[1]
        assert issubclass(errors[0], ProxyPlatformError)


class TestSmsFailures:
    def test_unreachable_supervisor_does_not_crash_app(self):
        sc = scenario.build_android()
        sc.device.sms_center.set_unreachable(sc.config.agent.supervisor_number)
        logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
        sc.platform.run_for(200_000.0)
        # the app kept running: proximity events still logged
        assert "arrived" in logic.activity_events
        # and no SMS reached the supervisor
        inbox = sc.device.sms_center.inbox_of(sc.config.agent.supervisor_number)
        assert inbox == []

    def test_failed_listener_event_android(self):
        sc = scenario.build_android()
        sc.device.sms_center.set_unreachable("+2")
        proxy = create_proxy("Sms", sc.platform)
        proxy.set_property("context", sc.new_context())
        events = []
        proxy.send_text_message("+2", "x", lambda e, mid, r: events.append((e, r)))
        sc.platform.run_for(5_000.0)
        assert events[0][0] == "failed"


class TestLocationOutOfService:
    def test_s60_provider_outage_mid_run(self):
        sc = scenario.build_s60()
        proxy = create_proxy("Location", sc.platform)
        proxy.get_location()  # works
        sc.platform.location_provider.out_of_service = True
        with pytest.raises(ProxyPlatformError):
            proxy.get_location()
        sc.platform.location_provider.out_of_service = False
        proxy.get_location()  # recovered


class TestWebViewDegradation:
    def test_page_reload_stops_stale_polling(self):
        """Reloading the page must not leave orphan polls hammering the
        bridge for a dead callback."""
        from repro.core.plugin.packaging import WebViewPlatformExtension
        from repro.core.proxies.location.webview import LocationProxyJs

        sc = scenario.build_webview()
        webview = sc.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, sc.platform, sc.new_context(), ["Location"]
        )
        events = []

        def page_one(window):
            proxy = LocationProxyJs.in_page(window)
            proxy.add_proximity_alert(
                sc.config.site.latitude,
                sc.config.site.longitude,
                0.0,
                sc.config.site.radius_m,
                -1,
                lambda *args: events.append(args),
            )

        window_one = webview.load_page(page_one)
        assert window_one.active_timer_count() == 1
        webview.load_page(lambda w: None)  # navigation
        assert window_one.active_timer_count() == 0
        sc.platform.run_for(200_000.0)
        assert events == []  # the old page's callback never fires
