"""Cross-platform uniformity: the paper's central claim, as tests.

The same application-level interaction sequence, run through the proxies
on Android, S60 and WebView, must produce the *same observable behaviour*
— identical event sequences, identical value types, identical uniform
errors — even though the three native stacks disagree about everything.
"""

import pytest

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.proxy.datatypes import Location
from repro.device.network import HttpResponse
from repro.errors import ProxyInvalidArgumentError

SITE = scenario.SITE


class Recorder(ProximityListener):
    def __init__(self):
        self.events = []

    def proximity_event(self, ref_lat, ref_lon, ref_alt, current, entering):
        self.events.append(
            {
                "ref": (ref_lat, ref_lon, ref_alt),
                "entering": entering,
                "location_type": type(current).__name__,
            }
        )


def _location_proxy_for(platform_name):
    """Build (scenario, location proxy) for a platform by name."""
    if platform_name == "android":
        sc = scenario.build_android()
        proxy = create_proxy("Location", sc.platform)
        proxy.set_property("context", sc.new_context())
        return sc, proxy
    if platform_name == "s60":
        sc = scenario.build_s60()
        return sc, create_proxy("Location", sc.platform)
    sc = scenario.build_webview()
    webview = sc.platform.new_webview()
    WebViewPlatformExtension().install_wrappers(
        webview, sc.platform, sc.new_context(), ["Location"]
    )
    webview.load_page(lambda w: None)
    proxy = create_proxy("Location", sc.platform)
    proxy.set_property("pollInterval", 500)
    return sc, proxy


PLATFORMS = ["android", "s60", "webview"]


class TestProximityUniformity:
    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_event_sequence_identical(self, platform_name):
        sc, proxy = _location_proxy_for(platform_name)
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(200_000.0)
        assert [e["entering"] for e in recorder.events] == [True, False, True], (
            f"{platform_name} diverged"
        )

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_event_payload_uniform(self, platform_name):
        sc, proxy = _location_proxy_for(platform_name)
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, recorder
        )
        sc.platform.run_for(100_000.0)
        event = recorder.events[0]
        assert event["ref"] == (SITE.latitude, SITE.longitude, 0.0)
        assert event["location_type"] == "Location"

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_expiration_uniform(self, platform_name):
        sc, proxy = _location_proxy_for(platform_name)
        recorder = Recorder()
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, 30.0, recorder
        )
        sc.platform.run_for(200_000.0)
        assert recorder.events == []

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_get_location_returns_uniform_type(self, platform_name):
        sc, proxy = _location_proxy_for(platform_name)
        location = proxy.get_location()
        assert isinstance(location, Location)

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_invalid_arguments_rejected_identically(self, platform_name):
        sc, proxy = _location_proxy_for(platform_name)
        with pytest.raises(ProxyInvalidArgumentError):
            proxy.add_proximity_alert(400.0, 0.0, 0.0, 100.0, -1, Recorder())


class TestSmsUniformity:
    def _sms_proxy_for(self, platform_name):
        if platform_name == "android":
            sc = scenario.build_android()
            proxy = create_proxy("Sms", sc.platform)
            proxy.set_property("context", sc.new_context())
            return sc, proxy
        if platform_name == "s60":
            sc = scenario.build_s60()
            return sc, create_proxy("Sms", sc.platform)
        sc = scenario.build_webview()
        webview = sc.platform.new_webview()
        WebViewPlatformExtension().install_wrappers(
            webview, sc.platform, sc.new_context(), ["Sms"]
        )
        webview.load_page(lambda w: None)
        return sc, create_proxy("Sms", sc.platform)

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_message_arrives(self, platform_name):
        sc, proxy = self._sms_proxy_for(platform_name)
        proxy.send_text_message("+77", "uniform hello")
        sc.platform.run_for(5_000.0)
        inbox = sc.device.sms_center.inbox_of("+77")
        assert [m.text for m in inbox] == ["uniform hello"]

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_sent_event_fires_everywhere(self, platform_name):
        sc, proxy = self._sms_proxy_for(platform_name)
        events = []
        proxy.send_text_message("+77", "x", lambda e, mid, r: events.append(e))
        sc.platform.run_for(5_000.0)
        assert "sent" in events


class TestHttpUniformity:
    def _http_proxy_for(self, platform_name):
        if platform_name == "android":
            sc = scenario.build_android()
            proxy = create_proxy("Http", sc.platform)
            proxy.set_property("context", sc.new_context())
        elif platform_name == "s60":
            sc = scenario.build_s60()
            proxy = create_proxy("Http", sc.platform)
        else:
            sc = scenario.build_webview()
            webview = sc.platform.new_webview()
            WebViewPlatformExtension().install_wrappers(
                webview, sc.platform, sc.new_context(), ["Http"]
            )
            webview.load_page(lambda w: None)
            proxy = create_proxy("Http", sc.platform)
        server = sc.device.network.add_server("api.test")
        server.route("GET", "/ping", lambda r: HttpResponse(200, "pong"))
        return sc, proxy

    @pytest.mark.parametrize("platform_name", PLATFORMS)
    def test_result_identical(self, platform_name):
        sc, proxy = self._http_proxy_for(platform_name)
        result = proxy.get("http://api.test/ping")
        assert (result.status, result.body) == (200, "pong")


class TestFactory:
    def test_implementation_strings_resolve(self):
        from repro.core.proxies.factory import implementation_class
        from repro.core.proxies import standard_registry

        registry = standard_registry()
        for interface in registry.interfaces():
            descriptor = registry.descriptor(interface)
            for binding in descriptor.bindings.values():
                assert implementation_class(binding.implementation_class)

    def test_unknown_implementation_string(self):
        from repro.core.proxies.factory import implementation_class
        from repro.errors import RegistryError

        with pytest.raises(RegistryError):
            implementation_class("com.nowhere.Ghost")
