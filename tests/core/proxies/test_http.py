"""Tests for the HTTP proxy on all three platforms."""

import pytest

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.http.webview import HttpProxyJs
from repro.device.network import HttpResponse
from repro.obs import Observability
from repro.errors import (
    ProxyInvalidArgumentError,
    ProxyPermissionError,
    ProxyPlatformError,
)


def _add_routes(device):
    server = device.network.add_server("api.test")
    server.route("GET", "/ping", lambda r: HttpResponse(200, "pong"))
    server.route("POST", "/echo", lambda r: HttpResponse(200, r.body))
    server.route(
        "GET",
        "/agent",
        lambda r: HttpResponse(200, r.header("User-Agent", "")),
    )
    return server


class TestAndroidBinding:
    @pytest.fixture
    def proxy(self, android_scenario):
        _add_routes(android_scenario.device)
        proxy = create_proxy("Http", android_scenario.platform)
        proxy.set_property("context", android_scenario.new_context())
        return proxy

    def test_get(self, proxy):
        result = proxy.get("http://api.test/ping")
        assert result.ok and result.body == "pong"

    def test_post(self, proxy):
        result = proxy.post("http://api.test/echo", "payload")
        assert result.body == "payload"

    def test_user_agent_property(self, proxy):
        proxy.set_property("userAgent", "WorkforceApp/2.0")
        assert proxy.get("http://api.test/agent").body == "WorkforceApp/2.0"

    def test_default_user_agent(self, proxy):
        assert proxy.get("http://api.test/agent").body == "MobiVine/1.0"

    def test_transport_failure_uniform(self, android_scenario, proxy):
        android_scenario.device.network.fail_next("no bearer")
        with pytest.raises(ProxyPlatformError):
            proxy.get("http://api.test/ping")

    def test_bad_url_uniform(self, proxy):
        with pytest.raises((ProxyInvalidArgumentError, ProxyPlatformError)):
            proxy.get("not-a-url")

    def test_permission_uniform(self, android_scenario):
        _add_routes(android_scenario.device)
        android_scenario.platform.install("noperm", set())
        proxy = create_proxy("Http", android_scenario.platform)
        proxy.set_property("context", android_scenario.platform.new_context("noperm"))
        with pytest.raises(ProxyPermissionError):
            proxy.get("http://api.test/ping")


class TestS60Binding:
    @pytest.fixture
    def proxy(self, s60_scenario):
        _add_routes(s60_scenario.device)
        return create_proxy("Http", s60_scenario.platform)

    def test_get(self, proxy):
        assert proxy.get("http://api.test/ping").body == "pong"

    def test_post(self, proxy):
        assert proxy.post("http://api.test/echo", "data").body == "data"

    def test_transport_failure_uniform(self, s60_scenario, proxy):
        s60_scenario.device.network.fail_next("down")
        with pytest.raises(ProxyPlatformError):
            proxy.get("http://api.test/ping")

    def test_no_context_property_on_s60(self, proxy):
        from repro.errors import ProxyPropertyError

        with pytest.raises(ProxyPropertyError):
            proxy.set_property("context", object())


class TestWebViewBinding:
    @pytest.fixture
    def page(self, webview_scenario):
        _add_routes(webview_scenario.device)
        webview = webview_scenario.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, webview_scenario.platform, webview_scenario.new_context(), ["Http"]
        )
        return webview.load_page(lambda w: None)

    def test_get_over_bridge(self, page):
        proxy = HttpProxyJs.in_page(page)
        assert proxy.get("http://api.test/ping").body == "pong"

    def test_post_over_bridge(self, page):
        proxy = HttpProxyJs.in_page(page)
        assert proxy.post("http://api.test/echo", "x").body == "x"

    def test_transport_failure_as_error_code(self, webview_scenario, page):
        proxy = HttpProxyJs.in_page(page)
        webview_scenario.device.network.fail_next("gone")
        with pytest.raises(ProxyPlatformError):
            proxy.get("http://api.test/ping")

    def test_in_page_proxy_traces_on_a_traced_device(self):
        sc = scenario.build_webview(
            observability=Observability()
        )
        _add_routes(sc.device)
        webview = sc.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, sc.platform, sc.new_context(), ["Http"]
        )
        proxy = HttpProxyJs.in_page(webview.load_page(lambda w: None))
        proxy.get("http://api.test/ping")
        names = [span.name for span in sc.device.obs.tracer.spans]
        assert names.count("dispatch:get") == 1

    def test_content_type_property_forwarded(self, webview_scenario, page):
        seen = {}

        def handler(request):
            seen["ct"] = request.header("Content-Type")
            return HttpResponse(200)

        webview_scenario.device.network.server("api.test").route(
            "POST", "/ct", handler
        )
        proxy = HttpProxyJs.in_page(page)
        proxy.set_property("contentType", "application/json")
        proxy.post("http://api.test/ct", "{}")
        assert seen["ct"] == "application/json"
