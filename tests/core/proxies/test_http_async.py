"""Tests for asynchronous HTTP across the three bindings."""

import pytest

from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import HttpResponseListener
from repro.device.network import HttpResponse
from repro.errors import ProxyInvalidArgumentError, ProxyPermissionError


def _add_routes(device):
    server = device.network.add_server("api.test")
    server.route("GET", "/slow", lambda r: HttpResponse(200, "eventually"))
    return server


class Recorder(HttpResponseListener):
    def __init__(self):
        self.responses = []
        self.errors = []

    def on_response(self, result):
        self.responses.append(result)

    def on_error(self, reason):
        self.errors.append(reason)


class TestAndroidAsync:
    @pytest.fixture
    def proxy(self, android_scenario):
        _add_routes(android_scenario.device)
        proxy = create_proxy("Http", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        return proxy

    def test_response_arrives_later(self, android_scenario, proxy):
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        assert recorder.responses == []  # not yet
        android_scenario.platform.run_for(5_000.0)
        assert recorder.responses[0].body == "eventually"

    def test_transport_error_to_listener(self, android_scenario, proxy):
        android_scenario.device.network.fail_next("gone")
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        android_scenario.platform.run_for(5_000.0)
        assert recorder.errors == ["gone"]
        assert recorder.responses == []

    def test_function_callback_style(self, android_scenario, proxy):
        events = []
        proxy.get_async(
            "http://api.test/slow", lambda result, error: events.append((result, error))
        )
        android_scenario.platform.run_for(5_000.0)
        result, error = events[0]
        assert result.ok and error is None

    def test_bad_url_raises_immediately(self, proxy):
        with pytest.raises(Exception):
            proxy.get_async("nonsense", Recorder())

    def test_requires_permission(self, android_scenario):
        _add_routes(android_scenario.device)
        android_scenario.platform.install("noperm", set())
        proxy = create_proxy("Http", android_scenario.platform)
        proxy.set_property("context", android_scenario.platform.new_context("noperm"))
        with pytest.raises(ProxyPermissionError):
            proxy.get_async("http://api.test/slow", Recorder())


class TestS60Async:
    @pytest.fixture
    def proxy(self, s60_scenario):
        _add_routes(s60_scenario.device)
        return create_proxy("Http", s60_scenario.platform)

    def test_response_arrives_later(self, s60_scenario, proxy):
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        assert recorder.responses == []
        s60_scenario.platform.run_for(5_000.0)
        assert recorder.responses[0].body == "eventually"

    def test_transport_error_to_listener(self, s60_scenario, proxy):
        s60_scenario.device.network.fail_next("tunnel")
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        s60_scenario.platform.run_for(5_000.0)
        assert recorder.errors == ["tunnel"]

    def test_malformed_url_uniform_error(self, proxy):
        with pytest.raises(ProxyInvalidArgumentError):
            proxy.get_async("ftp://x/y", Recorder())


class TestWebViewAsync:
    @pytest.fixture
    def proxy(self, webview_scenario):
        _add_routes(webview_scenario.device)
        webview = webview_scenario.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, webview_scenario.platform, webview_scenario.new_context(), ["Http"]
        )
        webview.load_page(lambda w: None)
        return create_proxy("Http", webview_scenario.platform)

    def test_response_polled_from_table(self, webview_scenario, proxy):
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        assert recorder.responses == []
        webview_scenario.platform.run_for(5_000.0)
        assert recorder.responses[0].body == "eventually"

    def test_polling_is_one_shot(self, webview_scenario, proxy):
        window = webview_scenario.platform.active_window
        proxy.get_async("http://api.test/slow", Recorder())
        webview_scenario.platform.run_for(5_000.0)
        assert window.active_timer_count() == 0

    def test_error_crosses_as_payload(self, webview_scenario, proxy):
        webview_scenario.device.network.fail_next("dead zone")
        recorder = Recorder()
        proxy.get_async("http://api.test/slow", recorder)
        webview_scenario.platform.run_for(5_000.0)
        assert recorder.errors == ["dead zone"]
