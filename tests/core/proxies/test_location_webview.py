"""Tests for the WebView Location proxy (Figure 6 machinery)."""

import pytest

from repro.apps.workforce import scenario
from repro.core.proxies import create_proxy
from repro.core.proxies.location.webview import (
    LocationProxyJs,
    install_location_wrapper,
)
from repro.core.proxy.datatypes import Location
from repro.errors import ProxyError, ProxyPermissionError, ProxyPropertyError

SITE = scenario.SITE


@pytest.fixture
def sc(webview_scenario):
    return webview_scenario


@pytest.fixture
def page(sc):
    webview = sc.platform.new_webview()
    install_location_wrapper(webview, sc.platform, sc.new_context())
    return webview.load_page(lambda w: None)


class TestJsProxyConstruction:
    def test_in_page_constructor(self, sc, page):
        proxy = LocationProxyJs.in_page(page)
        assert proxy.interface == "Location"

    def test_factory_needs_loaded_page(self, sc):
        webview = sc.platform.new_webview()
        install_location_wrapper(webview, sc.platform, sc.new_context())
        sc.platform.active_window = None
        with pytest.raises(ProxyError, match="page"):
            create_proxy("Location", sc.platform)

    def test_factory_uses_active_window(self, sc, page):
        proxy = create_proxy("Location", sc.platform)
        assert isinstance(proxy, LocationProxyJs)

    def test_wrapper_instance_per_proxy(self, sc, page):
        first = LocationProxyJs.in_page(page)
        second = LocationProxyJs.in_page(page)
        assert first._swi != second._swi


class TestBridgeSemantics:
    def test_get_location_crosses_as_json(self, sc, page):
        proxy = LocationProxyJs.in_page(page)
        location = proxy.get_location()
        assert isinstance(location, Location)

    def test_callbacks_polled_not_pushed(self, sc, page):
        """Events only arrive when the JS polling timer drains the table."""
        proxy = LocationProxyJs.in_page(page)
        proxy.set_property("pollInterval", 1_000)
        events = []
        proxy.add_proximity_alert(
            SITE.latitude,
            SITE.longitude,
            0.0,
            SITE.radius_m,
            -1,
            lambda lat, lon, alt, cur, entering: events.append(entering),
        )
        sc.platform.run_for(200_000.0)
        assert events == [True, False, True]

    def test_function_callback_style(self, sc, page):
        """The JS syntactic plane's callback style is a bare function."""
        proxy = LocationProxyJs.in_page(page)
        calls = []
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1,
            lambda *args: calls.append(args),
        )
        sc.platform.run_for(100_000.0)
        ref_lat, ref_lon, ref_alt, current, entering = calls[0]
        assert ref_lat == SITE.latitude
        assert isinstance(current, Location)
        assert entering is True

    def test_remove_stops_polling(self, sc, page):
        proxy = LocationProxyJs.in_page(page)
        events = []
        listener = lambda *args: events.append(args)  # noqa: E731
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, listener
        )
        proxy.remove_proximity_alert(listener)
        sc.platform.run_for(200_000.0)
        assert events == []
        assert page.active_timer_count() == 0

    def test_error_travels_as_code(self, sc, page):
        """Permission failures arrive as coded envelopes, re-raised as the
        right uniform error class in the JS domain."""
        sc.platform.android.install("noperm", set())
        webview = sc.platform.new_webview()
        install_location_wrapper(
            webview, sc.platform, sc.platform.android.new_context("noperm")
        )
        window = webview.load_page(lambda w: None)
        proxy = LocationProxyJs.in_page(window)
        with pytest.raises(ProxyPermissionError):
            proxy.get_location()

    def test_poll_interval_property_is_js_side_only(self, sc, page):
        proxy = LocationProxyJs.in_page(page)
        proxy.set_property("pollInterval", 250)
        assert proxy.get_property("pollInterval") == 250

    @pytest.mark.parametrize("value", ["fast", True, 250.0, None])
    def test_mistyped_poll_interval_rejected_before_any_alert(self, sc, page, value):
        """A non-int ``pollInterval`` once passed ``setProperty`` and failed
        only after the Java side had registered the alert, leaving a
        receiver no ``remove_proximity_alert`` could release."""
        proxy = LocationProxyJs.in_page(page)
        registry = sc.platform.android.broadcast_registry
        before = registry.registered_count()
        with pytest.raises(ProxyPropertyError, match="pollInterval") as info:
            proxy.set_property("pollInterval", value)
        assert info.value.error_code == 1004
        assert proxy.get_property("pollInterval") == 500  # the default holds
        listener = lambda *args: None  # noqa: E731
        proxy.add_proximity_alert(
            SITE.latitude, SITE.longitude, 0.0, SITE.radius_m, -1, listener
        )
        assert registry.registered_count() == before + 1
        proxy.remove_proximity_alert(listener)
        assert registry.registered_count() == before

    def test_provider_property_forwarded_to_java(self, sc, page):
        proxy = LocationProxyJs.in_page(page)
        proxy.set_property("provider", "gps")  # crosses the bridge; validated there
        assert proxy.get_location() is not None
