"""Figure-10 worlds: one calibrated device per platform, reachable through
the proxied API and through the platform's native API.

Each :class:`Fig10World` exposes the paper's three calls (plus the
removal that keeps proximity registrations from piling up) as
zero-argument callables on both paths, the world's scheduler (the app
looper the workload pumps, and the virtual clock each call charges) and
the Android broadcast registry whose receiver count must return to its
baseline once the looper has run.
Everything is built with public API only; the calibrated latency
models are the ones ``repro.bench.harness`` uses, so the virtual charge
of every call is the paper's bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.apps.workforce import scenario
from repro.bench.calibration import (
    figure10_android_latency,
    figure10_s60_latency,
    figure10_webview_bridge_latency,
)
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxies.location.webview import LocationProxyJs
from repro.core.proxies.sms.webview import SmsProxyJs
from repro.core.proxy.callbacks import ProximityListener
from repro.platforms.android.context import Context
from repro.platforms.android.intents import BroadcastRegistry, Intent
from repro.platforms.android.location import NO_EXPIRATION
from repro.platforms.s60.location import Coordinates
from repro.platforms.s60.location import ProximityListener as S60ProximityListener
from repro.util.clock import Scheduler

#: The calls of one Figure-10 bar pair; ``removeProximityAlert`` always
#: follows ``addProximityAlert`` and is not a bar of its own.
APIS = ("addProximityAlert", "getLocation", "sendSMS")
PLATFORMS = ("android", "s60", "webview")
PATHS = ("proxied", "native")
SMS_DESTINATION = "+900"


class _NullListener(ProximityListener):
    def proximity_event(self, *args) -> None:
        pass


class _NullS60Listener(S60ProximityListener):
    def proximity_event(self, coordinates, location) -> None:
        pass

    def monitoring_state_changed(self, active: bool) -> None:
        pass


@dataclass
class Fig10World:
    """One platform's device with both call paths bound."""

    platform: str
    scheduler: Scheduler
    #: path → call name → callable (``removeProximityAlert`` included).
    calls: Dict[str, Dict[str, Callable[[], object]]]
    #: registries whose receiver count the pumped looper must restore.
    registries: List[BroadcastRegistry]

    def registered_receivers(self) -> int:
        return sum(registry.registered_count() for registry in self.registries)


def _ready(sc) -> None:
    sc.device.gps.power_on()
    sc.platform.run_for(5_000)  # first GPS fix


def _android_world() -> Fig10World:
    sc = scenario.build_android(latency=figure10_android_latency())
    _ready(sc)
    context = sc.new_context()
    site = sc.config.site
    location = create_proxy("Location", sc.platform)
    location.set_property("context", context)
    sms = create_proxy("Sms", sc.platform)
    sms.set_property("context", context)
    listener = _NullListener()
    manager = context.get_system_service(Context.LOCATION_SERVICE)
    sms_manager = sc.platform.sms_manager(context)
    alert = Intent("bench.PROXIMITY")
    return Fig10World(
        platform="android",
        scheduler=sc.device.scheduler,
        calls={
            "proxied": {
                "addProximityAlert": lambda: location.add_proximity_alert(
                    site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                ),
                "removeProximityAlert": lambda: location.remove_proximity_alert(
                    listener
                ),
                "getLocation": location.get_location,
                "sendSMS": lambda: sms.send_text_message(SMS_DESTINATION, "bench"),
            },
            "native": {
                "addProximityAlert": lambda: manager.add_proximity_alert(
                    site.latitude, site.longitude, site.radius_m, NO_EXPIRATION, alert
                ),
                "removeProximityAlert": lambda: manager.remove_proximity_alert(alert),
                "getLocation": lambda: manager.get_current_location("gps"),
                "sendSMS": lambda: sms_manager.send_text_message(
                    SMS_DESTINATION, None, "bench"
                ),
            },
        },
        registries=[sc.platform.broadcast_registry],
    )


def _s60_world() -> Fig10World:
    sc = scenario.build_s60(latency=figure10_s60_latency())
    _ready(sc)
    site = sc.config.site
    location = create_proxy("Location", sc.platform)
    sms = create_proxy("Sms", sc.platform)
    listener = _NullListener()
    statics = sc.platform.location_provider
    provider = statics.get_instance(None)
    native_listener = _NullS60Listener()
    coordinates = Coordinates(site.latitude, site.longitude)

    def send_sms() -> None:
        connection = sc.platform.connector.open(f"sms://{SMS_DESTINATION}")
        message = connection.new_message(connection.TEXT_MESSAGE)
        message.set_payload_text("bench")
        connection.send(message)
        connection.close()

    return Fig10World(
        platform="s60",
        scheduler=sc.device.scheduler,
        calls={
            "proxied": {
                "addProximityAlert": lambda: location.add_proximity_alert(
                    site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                ),
                "removeProximityAlert": lambda: location.remove_proximity_alert(
                    listener
                ),
                "getLocation": location.get_location,
                "sendSMS": lambda: sms.send_text_message(SMS_DESTINATION, "bench"),
            },
            "native": {
                "addProximityAlert": lambda: statics.add_proximity_listener(
                    native_listener, coordinates, site.radius_m
                ),
                "removeProximityAlert": lambda: statics.remove_proximity_listener(
                    native_listener
                ),
                "getLocation": lambda: provider.get_location(-1),
                "sendSMS": send_sms,
            },
        },
        registries=[],
    )


class _RawShims:
    """The developer's hand-written Java shim: the native WebView path
    exposes the Android managers over the bridge with no M-Proxy."""

    def __init__(self, context, android) -> None:
        self._context = context
        self._android = android
        self._alert = Intent("bench.PROXIMITY")

    def _manager(self):
        return self._context.get_system_service(Context.LOCATION_SERVICE)

    def add_proximity_alert(self, latitude, longitude, radius) -> str:
        self._manager().add_proximity_alert(
            latitude, longitude, radius, NO_EXPIRATION, self._alert
        )
        return "ok"

    def remove_proximity_alert(self) -> str:
        self._manager().remove_proximity_alert(self._alert)
        return "ok"

    def get_location(self) -> str:
        location = self._manager().get_current_location("gps")
        return f"{location.get_latitude()},{location.get_longitude()}"

    def send_text_message(self, destination: str, text: str) -> str:
        return self._android.sms_manager(self._context).send_text_message(
            destination, None, text
        )


def _webview_world() -> Fig10World:
    sc = scenario.build_webview(
        latency=figure10_webview_bridge_latency(),
        android_latency=figure10_android_latency(),
    )
    _ready(sc)
    context = sc.new_context()
    site = sc.config.site
    webview = sc.platform.new_webview()
    WebViewPlatformExtension().install_wrappers(
        webview, sc.platform, context, ["Location", "Sms"]
    )
    webview.add_javascript_interface(
        _RawShims(context, sc.platform.android), "RawShims"
    )
    page: Dict[str, object] = {}

    def load(window) -> None:
        page["location"] = LocationProxyJs.in_page(window)
        page["sms"] = SmsProxyJs.in_page(window)
        page["shims"] = window.bridge_object("RawShims")

    webview.load_page(load)
    location, sms, shims = page["location"], page["sms"], page["shims"]
    listener = _NullListener()
    return Fig10World(
        platform="webview",
        scheduler=sc.device.scheduler,
        calls={
            "proxied": {
                "addProximityAlert": lambda: location.add_proximity_alert(
                    site.latitude, site.longitude, 0.0, site.radius_m, -1, listener
                ),
                "removeProximityAlert": lambda: location.remove_proximity_alert(
                    listener
                ),
                "getLocation": location.get_location,
                "sendSMS": lambda: sms.send_text_message(SMS_DESTINATION, "bench"),
            },
            "native": {
                "addProximityAlert": lambda: shims.add_proximity_alert(
                    site.latitude, site.longitude, site.radius_m
                ),
                "removeProximityAlert": lambda: shims.remove_proximity_alert(),
                "getLocation": lambda: shims.get_location(),
                "sendSMS": lambda: shims.send_text_message(SMS_DESTINATION, "bench"),
            },
        },
        registries=[sc.platform.android.broadcast_registry],
    )


_BUILDERS = {
    "android": _android_world,
    "s60": _s60_world,
    "webview": _webview_world,
}


def build_worlds() -> List[Fig10World]:
    """A fresh calibrated world per platform, with both paths bound."""
    return [_BUILDERS[platform]() for platform in PLATFORMS]
