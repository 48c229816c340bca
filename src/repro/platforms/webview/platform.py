"""The WebView platform object.

A WebView platform *contains* an Android platform: page JS reaches device
capabilities only through Java objects that themselves call the Android
substrate.  Its own latency model covers the bridge crossings; calibration
for Figure 10 decomposes the paper's WebView bars into (Android native
cost) + (bridge cost per method).
"""

from __future__ import annotations

from typing import Optional

from repro.device.device import MobileDevice
from repro.platforms.android.platform import AndroidPlatform
from repro.platforms.base import PlatformBase
from repro.platforms.webview.notifications import NotificationTable
from repro.platforms.webview.webview import WebView
from repro.util.latency import LatencyModel

#: Default per-crossing bridge latencies (ms), shaped so that
#: android-native + bridge matches the paper's WebView bars:
#: addProximityAlert 53.6+24.8≈78.4, getLocation 15.5+104.5≈120,
#: sendSMS 52.7+38.9≈91.6.
DEFAULT_BRIDGE_LATENCY = LatencyModel(
    mean_ms={
        "webview.bridge.add_proximity_alert": 24.8,
        "webview.bridge.get_location": 104.5,
        "webview.bridge.send_text_message": 38.9,
    },
    default_ms=2.0,
)


class WebViewPlatform(PlatformBase):
    """An Android WebView runtime mounted on one device."""

    platform_name = "webview"

    def __init__(
        self,
        device: MobileDevice,
        *,
        android: Optional[AndroidPlatform] = None,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        super().__init__(device, latency=latency or DEFAULT_BRIDGE_LATENCY)
        if android is not None and android.device is not device:
            raise ValueError("android platform must be mounted on the same device")
        self.android = android or AndroidPlatform(device)
        self.notification_table = NotificationTable(
            injector=getattr(device, "faults", None)
        )
        #: The window of the most recently loaded page (set by
        #: :meth:`WebView.load_page`); lets factory-constructed JS proxies
        #: find their page context.
        self.active_window = None

    def charge_bridge(self, method_name: str) -> float:
        """Charge one JS→Java bridge crossing for ``method_name``."""
        return self.charge_native(f"webview.bridge.{method_name}")

    def new_webview(self) -> WebView:
        """Create a browser surface on this platform."""
        return WebView(self)
