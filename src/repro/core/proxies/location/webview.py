"""WebView binding of the Location proxy (paper Figure 6, applied to
Location instead of SMS).

Three pieces, matching the figure's three steps:

1. **Wrapper factory** (``LocationWrapperFactory``) — injected into the
   page; ``create_location_wrapper_instance`` builds a Java-side proxy
   (reusing the Android binding) and returns an integer handle, the
   figure's ``swi``.
2. **Wrapper** (``LocationWrapper``) — injected alongside; exposes the
   proxy methods with the handle as first argument.  Results and errors
   travel as JSON envelopes because neither objects nor exceptions cross
   the bridge.
3. **Notification support** — ``add_proximity_alert`` returns a
   notification id; a Java-side callback object posts every proximity
   event into the platform's Notification Table, and the JS proxy's
   ``notifHandler`` polls it with ``window.set_interval``.

Use :func:`install_location_wrapper` (normally called by the M-Plugin's
WebView platform extension) to inject the Java side, then construct
:class:`LocationProxyJs` in page code.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple, Union

from repro.core.proxies.factory import register_implementation
from repro.core.proxies.location.android import AndroidLocationProxyImpl
from repro.core.proxies.location.api import LocationProxy
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    NotificationHandler,
    WrapperBackend,
    WrapperFactory,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.callbacks import FunctionProximityListener, ProximityListener
from repro.core.proxy.datatypes import Location
from repro.core.resilience import LAST_RESULT
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

#: JS global names the plugin injects the Java side under.
FACTORY_JS_NAME = "LocationWrapperFactory"
WRAPPER_JS_NAME = "LocationWrapper"


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


class _TablePostingListener(ProximityListener):
    """The figure's Java 'Callback object': posts events into the table."""

    def __init__(self, backend: WrapperBackend, notification_id: str, platform: WebViewPlatform) -> None:
        self._backend = backend
        self._notification_id = notification_id
        self._platform = platform

    def proximity_event(
        self,
        ref_latitude: float,
        ref_longitude: float,
        ref_altitude: float,
        current_location: Location,
        entering: bool,
    ) -> None:
        self._backend.notifications.post(
            self._notification_id,
            "proximity",
            {
                "refLatitude": ref_latitude,
                "refLongitude": ref_longitude,
                "refAltitude": ref_altitude,
                "entering": entering,
                "location": _location_payload(current_location),
            },
            now_ms=self._platform.clock.now_ms,
        )


class LocationWrapperFactory(WrapperFactory):
    """Java side, step 1: mints wrapper instances for the JS domain."""

    def create_location_wrapper_instance(self) -> int:
        """Bridge entry: returns the new instance handle (``swi``)."""
        return self._wrapper.create_instance()


class LocationWrapperJava(JavaWrapper):
    """Java side, step 2: the ``LocationWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidLocationProxyImpl

    def __init__(self, platform: WebViewPlatform, context: Context) -> None:
        super().__init__(platform, context)
        #: notification id → (instance handle, internal listener).
        self._alerts: Dict[str, Tuple[int, ProximityListener]] = {}

    def add_proximity_alert(
        self,
        handle: int,
        latitude: float,
        longitude: float,
        altitude: float,
        radius: float,
        timer: float,
    ) -> str:
        try:
            proxy = self._backend.instance(handle)
            notification_id = self._backend.notifications.new_id()
            listener = _TablePostingListener(
                self._backend, notification_id, self._platform
            )
            proxy.add_proximity_alert(
                latitude, longitude, altitude, radius, timer, listener
            )
        except ProxyError as exc:
            return encode_error(exc)
        self._alerts[notification_id] = (handle, listener)
        return encode_ok({"notificationId": notification_id})

    def remove_proximity_alert(self, handle: int, notification_id: str) -> str:
        entry = self._alerts.pop(notification_id, None)
        if entry is None:
            return encode_ok()
        try:
            proxy = self._backend.instance(handle)
            proxy.remove_proximity_alert(entry[1])
            self._backend.notifications.close(notification_id)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()

    def get_location(self, handle: int) -> str:
        try:
            proxy = self._backend.instance(handle)
            location = proxy.get_location()
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok(_location_payload(location))


def install_location_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> LocationWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = LocationWrapperJava(platform, context)
    webview.add_javascript_interface(LocationWrapperFactory(wrapper), FACTORY_JS_NAME)
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


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

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_location_wrapper_instance"

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

        handler = NotificationHandler(
            self._window,
            self._wrapper,
            notification_id,
            dispatch,
            poll_interval_ms=float(self.get_property("pollInterval")),
        )
        handler.start_polling()
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
