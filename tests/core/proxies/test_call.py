"""Tests for the Call proxy (Android, WebView — and the S60 gap)."""

import pytest

from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.call.webview import CallProxyJs
from repro.core.proxy.callbacks import CallStateListener
from repro.core.proxy.datatypes import CallOutcome
from repro.device.telephony import TelephonyUnit
from repro.errors import ProxyPermissionError, ProxyUnavailableError


class Recorder(CallStateListener):
    def __init__(self):
        self.events = []

    def on_ringing(self, call):
        self.events.append("ringing")

    def on_answered(self, call):
        self.events.append("answered")

    def on_finished(self, call):
        self.events.append(("finished", call.outcome))


class TestAndroidBinding:
    @pytest.fixture
    def proxy(self, android_scenario):
        proxy = create_proxy("Call", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        return proxy

    def test_answered_call(self, android_scenario, proxy):
        recorder = Recorder()
        handle = proxy.make_a_call("+2", recorder)
        android_scenario.platform.run_for(10_000.0)
        proxy.end_call(handle)
        assert recorder.events == [
            "ringing",
            "answered",
            ("finished", CallOutcome.COMPLETED),
        ]
        assert handle.answered

    def test_busy_outcome(self, android_scenario, proxy):
        android_scenario.device.telephony.set_callee_behavior(
            "+2", TelephonyUnit.BUSY
        )
        recorder = Recorder()
        proxy.make_a_call("+2", recorder)
        android_scenario.platform.run_for(10_000.0)
        assert recorder.events == [("finished", CallOutcome.BUSY)]

    def test_unreachable_outcome(self, android_scenario, proxy):
        android_scenario.device.telephony.set_callee_behavior(
            "+2", TelephonyUnit.UNREACHABLE
        )
        recorder = Recorder()
        proxy.make_a_call("+2", recorder)
        android_scenario.platform.run_for(10_000.0)
        assert recorder.events == [("finished", CallOutcome.UNREACHABLE)]

    def test_no_answer_outcome(self, android_scenario, proxy):
        android_scenario.device.telephony.set_callee_behavior(
            "+2", TelephonyUnit.NO_ANSWER
        )
        recorder = Recorder()
        proxy.make_a_call("+2", recorder)
        android_scenario.platform.run_for(60_000.0)
        assert recorder.events[-1] == ("finished", CallOutcome.NO_ANSWER)

    def test_function_callback_style(self, android_scenario, proxy):
        events = []
        handle = proxy.make_a_call("+2", lambda e, cid, outcome: events.append(e))
        android_scenario.platform.run_for(10_000.0)
        proxy.end_call(handle)
        assert events == ["ringing", "answered", "finished"]

    def test_permission_maps_uniformly(self, android_scenario):
        android_scenario.platform.install("noperm", set())
        proxy = create_proxy("Call", android_scenario.platform)
        proxy.set_property("context", android_scenario.platform.new_context("noperm"))
        with pytest.raises(ProxyPermissionError):
            proxy.make_a_call("+2")

    def test_call_without_listener(self, android_scenario, proxy):
        handle = proxy.make_a_call("+2")
        android_scenario.platform.run_for(10_000.0)
        assert handle.call_id


class TestS60Gap:
    def test_no_call_proxy_on_s60(self, s60_scenario):
        """The paper: 'Call proxy could not be created ... because the core
        functionality was not exposed on the S60 platform.'"""
        with pytest.raises(ProxyUnavailableError, match="Call"):
            create_proxy("Call", s60_scenario.platform)


class TestWebViewBinding:
    @pytest.fixture
    def page(self, webview_scenario):
        webview = webview_scenario.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, webview_scenario.platform, webview_scenario.new_context(), ["Call"]
        )
        return webview.load_page(lambda w: None)

    def test_call_states_polled(self, webview_scenario, page):
        proxy = CallProxyJs.in_page(page)
        events = []
        handle = proxy.make_a_call("+2", lambda e, cid, outcome: events.append(e))
        webview_scenario.platform.run_for(10_000.0)
        proxy.end_call(handle)
        webview_scenario.platform.run_for(5_000.0)
        assert events == ["ringing", "answered", "finished"]

    def test_outcome_mirrored_to_js_handle(self, webview_scenario, page):
        webview_scenario.device.telephony.set_callee_behavior(
            "+2", TelephonyUnit.BUSY
        )
        proxy = CallProxyJs.in_page(page)
        recorder = Recorder()
        handle = proxy.make_a_call("+2", recorder)
        webview_scenario.platform.run_for(10_000.0)
        assert handle.outcome is CallOutcome.BUSY

    def test_polling_stops_after_finish(self, webview_scenario, page):
        proxy = CallProxyJs.in_page(page)
        handle = proxy.make_a_call("+2", lambda e, cid, outcome: None)
        webview_scenario.platform.run_for(10_000.0)
        proxy.end_call(handle)
        webview_scenario.platform.run_for(5_000.0)
        assert page.active_timer_count() == 0
