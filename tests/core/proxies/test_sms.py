"""Tests for the SMS proxy on all three platforms."""

import pytest

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.sms.webview import SmsProxyJs
from repro.core.proxy.callbacks import SmsStatusListener
from repro.core.resilience import chaos_policy
from repro.errors import (
    ProxyInvalidArgumentError,
    ProxyPermissionError,
    ProxyPropertyError,
)
from repro.faults import FaultPlan, FaultRule


class Recorder(SmsStatusListener):
    def __init__(self):
        self.events = []

    def on_sent(self, message_id):
        self.events.append(("sent", message_id))

    def on_delivered(self, message_id):
        self.events.append(("delivered", message_id))

    def on_failed(self, message_id, reason):
        self.events.append(("failed", reason))


class TestAndroidBinding:
    @pytest.fixture
    def proxy(self, android_scenario):
        proxy = create_proxy("Sms", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        return proxy

    def test_send_returns_id(self, android_scenario, proxy):
        assert proxy.send_text_message("+2", "hi")

    def test_sent_and_delivered_events(self, android_scenario, proxy):
        recorder = Recorder()
        message_id = proxy.send_text_message("+2", "hi", recorder)
        android_scenario.platform.run_for(3_000.0)
        assert recorder.events == [
            ("sent", message_id),
            ("delivered", message_id),
        ]

    def test_delivery_reports_can_be_disabled(self, android_scenario, proxy):
        proxy.set_property("deliveryReports", False)
        recorder = Recorder()
        proxy.send_text_message("+2", "hi", recorder)
        android_scenario.platform.run_for(3_000.0)
        assert [event for event, _ in recorder.events] == ["sent"]

    def test_failure_event(self, android_scenario, proxy):
        android_scenario.device.sms_center.set_unreachable("+2")
        recorder = Recorder()
        proxy.send_text_message("+2", "hi", recorder)
        android_scenario.platform.run_for(3_000.0)
        assert recorder.events[0][0] == "failed"

    def test_function_callback_style(self, android_scenario, proxy):
        events = []
        proxy.send_text_message("+2", "hi", lambda e, mid, r: events.append(e))
        android_scenario.platform.run_for(3_000.0)
        assert events == ["sent", "delivered"]

    def test_permission_maps_uniformly(self, android_scenario):
        android_scenario.platform.install("noperm", set())
        proxy = create_proxy("Sms", android_scenario.platform)
        proxy.set_property("context", android_scenario.platform.new_context("noperm"))
        with pytest.raises(ProxyPermissionError):
            proxy.send_text_message("+2", "hi")

    def test_argument_validation(self, proxy):
        with pytest.raises(ProxyInvalidArgumentError):
            proxy.send_text_message(123, "hi")


class TestS60Binding:
    @pytest.fixture
    def proxy(self, s60_scenario):
        return create_proxy("Sms", s60_scenario.platform)

    def test_send_delivers(self, s60_scenario, proxy):
        proxy.send_text_message("+2", "hello from s60")
        s60_scenario.platform.run_for(3_000.0)
        inbox = s60_scenario.device.sms_center.inbox_of("+2")
        assert [m.text for m in inbox] == ["hello from s60"]

    def test_sent_fires_but_never_delivered(self, s60_scenario, proxy):
        """The WMA stack has no delivery reports (documented gap)."""
        recorder = Recorder()
        proxy.send_text_message("+2", "hi", recorder)
        s60_scenario.platform.run_for(10_000.0)
        assert [event for event, _ in recorder.events] == ["sent"]

    def test_delivery_reports_property_unknown_on_s60(self, proxy):
        with pytest.raises(ProxyPropertyError):
            proxy.set_property("deliveryReports", True)

    def test_permission_maps_uniformly(self, s60_scenario):
        from repro.platforms.s60.packaging import (
            Jar,
            JarEntry,
            JadDescriptor,
            MidletSuite,
        )

        s60_scenario.platform.install_suite(
            MidletSuite(JadDescriptor("noperm"), Jar("n.jar", [JarEntry("A.class", 1)]))
        )
        s60_scenario.platform.connector.bind_suite("noperm")
        proxy = create_proxy("Sms", s60_scenario.platform)
        with pytest.raises(ProxyPermissionError):
            proxy.send_text_message("+2", "hi")


class TestWebViewBinding:
    @pytest.fixture
    def page(self, webview_scenario):
        webview = webview_scenario.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, webview_scenario.platform, webview_scenario.new_context(), ["Sms"]
        )
        return webview.load_page(lambda w: None)

    def test_send_and_status_via_polling(self, webview_scenario, page):
        proxy = SmsProxyJs.in_page(page)
        events = []
        message_id = proxy.send_text_message(
            "+2", "hi", lambda e, mid, r: events.append((e, mid))
        )
        webview_scenario.platform.run_for(5_000.0)
        assert ("sent", message_id) in events
        assert ("delivered", message_id) in events

    def test_stop_tracking_halts_polling(self, webview_scenario, page):
        proxy = SmsProxyJs.in_page(page)
        message_id = proxy.send_text_message("+2", "hi", lambda e, mid, r: None)
        proxy.stop_tracking(message_id)
        assert page.active_timer_count() == 0

    def test_error_code_over_bridge(self, webview_scenario):
        webview_scenario.platform.android.install("noperm", set())
        webview = webview_scenario.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview,
            webview_scenario.platform,
            webview_scenario.platform.android.new_context("noperm"),
            ["Sms"],
        )
        window = webview.load_page(lambda w: None)
        proxy = SmsProxyJs.in_page(window)
        with pytest.raises(ProxyPermissionError):
            proxy.send_text_message("+2", "hi")

    def test_mistyped_poll_interval_rejected_before_any_send(
        self, webview_scenario, page
    ):
        """A non-int ``pollInterval`` once failed ``send_text_message``
        with a raw ``ValueError`` after the SMSC had accepted the
        message, so a retrying app sent it twice."""
        proxy = SmsProxyJs.in_page(page)
        with pytest.raises(ProxyPropertyError, match="pollInterval") as info:
            proxy.set_property("pollInterval", "fast")
        assert info.value.error_code == 1004
        message_id = proxy.send_text_message("+2", "hi", lambda e, mid, r: None)
        webview_scenario.platform.run_for(5_000.0)
        inbox = webview_scenario.device.sms_center.inbox_of("+2")
        assert [message.text for message in inbox] == ["hi"]
        proxy.stop_tracking(message_id)

    def test_factory_path(self, webview_scenario, page):
        proxy = create_proxy("Sms", webview_scenario.platform)
        assert isinstance(proxy, SmsProxyJs)


class TestReceiverLifecycle:
    def test_receivers_unregister_after_delivery(self, android_scenario):
        proxy = create_proxy("Sms", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        registry = android_scenario.platform.broadcast_registry
        for _ in range(5):
            proxy.send_text_message("+2", "hi", Recorder())
            android_scenario.platform.run_for(3_000.0)
        assert registry.registered_count() == 0

    def test_receivers_unregister_after_failure(self, android_scenario):
        android_scenario.device.sms_center.set_unreachable("+2")
        proxy = create_proxy("Sms", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        registry = android_scenario.platform.broadcast_registry
        proxy.send_text_message("+2", "hi", Recorder())
        android_scenario.platform.run_for(3_000.0)
        # the delivery broadcast will never come; both receivers torn down
        assert registry.registered_count() == 0

    @pytest.mark.parametrize("profile", ["default", "chaos"])
    def test_failed_send_leaks_no_receivers(self, android_scenario, profile):
        resilience = chaos_policy("Sms") if profile == "chaos" else None
        android_scenario.platform.install("noperm", set())
        proxy = create_proxy("Sms", android_scenario.platform, resilience=resilience)
        proxy.set_property("context", android_scenario.platform.new_context("noperm"))
        registry = android_scenario.platform.broadcast_registry
        before = registry.registered_count()
        with pytest.raises(ProxyPermissionError):
            proxy.send_text_message("+2", "hi", Recorder())
        assert registry.registered_count() == before

    def test_redelivery_fallback_leaks_no_receivers(self):
        """A send served by the redelivery queue releases its receivers.

        The queue re-sends without a listener, so no broadcast ever
        reaches the receivers the first call registered.
        """
        unreachable = FaultRule("sms.submit", "carrier_unreachable", 1.0)
        sc = scenario.build_android(fault_plan=FaultPlan(seed=1, rules=(unreachable,)))
        proxy = create_proxy("Sms", sc.platform, resilience=chaos_policy("Sms"))
        proxy.set_property("context", sc.new_context())
        registry = sc.platform.broadcast_registry
        before = registry.registered_count()
        assert proxy.send_text_message("+2", "hi", Recorder()) == "queued-sms-1"
        assert registry.registered_count() == before
        sc.platform.run_for(60_000.0)
        assert [entry.queue_id for entry in proxy.redelivery_queue.abandoned] == [
            "queued-sms-3"
        ]
        assert registry.registered_count() == before
