"""WebView binding of the Location proxy (paper Figure 6, applied to
Location instead of SMS).

The Java side (``LocationWrapperJava``) reuses the Android binding behind
the bridge; ``add_proximity_alert`` returns a notification id and posts
every proximity event into the platform's Notification Table, which the
JS proxy's ``notifHandler`` polls with ``window.set_interval``.  The
shape every binding shares is in :mod:`repro.core.proxies.webview_common`.
"""

from __future__ import annotations

from typing import Callable, Dict, Union

from repro.core.proxies.factory import register_implementation
from repro.core.proxies.location.android import AndroidLocationProxyImpl
from repro.core.proxies.location.api import LocationProxy
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    bridge_entry,
    decode_or_raise,
)
from repro.core.proxy.callbacks import FunctionProximityListener, ProximityListener
from repro.core.proxy.datatypes import Location
from repro.core.resilience import LAST_RESULT
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform


def _location_payload(location: Location) -> Dict[str, float]:
    return {
        "latitude": location.latitude,
        "longitude": location.longitude,
        "altitude": location.altitude,
        "accuracy_m": location.accuracy_m,
        "timestamp_ms": location.timestamp_ms,
        "speed_mps": location.speed_mps,
    }


def _location_from_payload(payload: Dict[str, float]) -> Location:
    return Location(
        latitude=payload["latitude"],
        longitude=payload["longitude"],
        altitude=payload.get("altitude", 0.0),
        accuracy_m=payload.get("accuracy_m", 0.0),
        timestamp_ms=payload.get("timestamp_ms", 0.0),
        speed_mps=payload.get("speed_mps", 0.0),
    )


class LocationWrapperJava(JavaWrapper):
    """Java side, step 2: the ``LocationWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidLocationProxyImpl

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        super().__init__(platform, context)
        #: notification id → the listener registered for it.
        self._alerts: Dict[str, ProximityListener] = {}

    @bridge_entry
    def add_proximity_alert(
        self,
        handle: int,
        latitude: float,
        longitude: float,
        altitude: float,
        radius: float,
        timer: float,
    ) -> Dict[str, str]:
        proxy = self._instance(handle)
        notification_id, post = self._poster("proximity")

        def proximity_event(
            ref_latitude: float,
            ref_longitude: float,
            ref_altitude: float,
            current_location: Location,
            entering: bool,
        ) -> None:
            post(
                {
                    "refLatitude": ref_latitude,
                    "refLongitude": ref_longitude,
                    "refAltitude": ref_altitude,
                    "entering": entering,
                    "location": _location_payload(current_location),
                }
            )

        listener = FunctionProximityListener(proximity_event)
        proxy.add_proximity_alert(latitude, longitude, altitude, radius, timer, listener)
        self._alerts[notification_id] = listener
        return {"notificationId": notification_id}

    @bridge_entry
    def remove_proximity_alert(self, handle: int, notification_id: str) -> None:
        listener = self._alerts.pop(notification_id, None)
        if listener is not None:
            self._instance(handle).remove_proximity_alert(listener)
            self._notifications.close(notification_id)

    @bridge_entry
    def get_location(self, handle: int) -> Dict[str, float]:
        return _location_payload(self._instance(handle).get_location())


UniformCallback = Union[
    ProximityListener, Callable[[float, float, float, Location, bool], None]
]


class LocationProxyJs(JsProxy, LocationProxy):
    """JS side: ``com.ibm.proxies.webview.location.LocationProxyJs``.

    Constructed in page code (``LocationProxyJs.in_page(window)``) or via
    ``create_proxy("Location", webview_platform)`` after a page is loaded.
    The JS syntactic plane's callback style is ``function``, so
    ``add_proximity_alert`` accepts a bare function as well as a listener
    object.
    """

    # -- uniform API -----------------------------------------------------------------

    def add_proximity_alert(
        self,
        latitude: float,
        longitude: float,
        altitude: float,
        radius: float,
        timer: float,
        proximity_listener: UniformCallback,
    ) -> None:
        listener = self._as_listener(proximity_listener)
        payload = self._call(
            "addProximityAlert",
            lambda: decode_or_raise(
                self._wrapper.add_proximity_alert(
                    self._swi,
                    float(latitude),
                    float(longitude),
                    float(altitude),
                    float(radius),
                    float(timer),
                )
            ),
            latitude=latitude,
            longitude=longitude,
            altitude=altitude,
            radius=radius,
            timer=timer,
        )
        notification_id = payload["notificationId"]

        def dispatch(notification: Dict) -> None:
            body = notification["payload"]
            listener.proximity_event(
                body["refLatitude"],
                body["refLongitude"],
                body["refAltitude"],
                _location_from_payload(body["location"]),
                body["entering"],
            )

        handler = self._poll(notification_id, dispatch)
        self._handlers[id(proximity_listener)] = (notification_id, handler)

    def remove_proximity_alert(self, proximity_listener: UniformCallback) -> None:
        entry = self._handlers.pop(id(proximity_listener), None)

        def attempt() -> None:
            if entry is None:
                return
            notification_id, handler = entry
            handler.stop_polling()
            decode_or_raise(
                self._wrapper.remove_proximity_alert(self._swi, notification_id)
            )

        self._call("removeProximityAlert", attempt)

    def get_location(self) -> Location:
        def attempt() -> Location:
            payload = decode_or_raise(self._wrapper.get_location(self._swi))
            return _location_from_payload(payload)

        return self._call("getLocation", attempt, fallback=LAST_RESULT)

    @staticmethod
    def _as_listener(callback: UniformCallback) -> ProximityListener:
        if isinstance(callback, ProximityListener):
            return callback
        return FunctionProximityListener(callback)


register_implementation(
    "com.ibm.proxies.webview.location.LocationProxyJs", LocationProxyJs
)
