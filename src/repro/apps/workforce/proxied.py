"""With-proxy workforce app (the paper's Figures 8 and 9).

One business-logic class — :class:`WorkforceLogic` — is shared **verbatim**
by all three platforms; only a thin per-platform launcher differs (how the
proxies are constructed and which ``set_property`` keys apply).  This is
the portability claim made executable.
"""

from __future__ import annotations

from typing import List

from repro.apps.workforce.common import (
    PATH_LOG_EVENT,
    PATH_REPORT_LOCATION,
    SERVER_HOST,
    WorkforceConfig,
    encode,
)
from repro.core.proxies import create_proxy
from repro.core.proxies.http.api import HttpProxy
from repro.core.proxies.location.api import LocationProxy
from repro.core.proxies.sms.api import SmsProxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.proxy.datatypes import Location
from repro.errors import ProxyError


class WorkforceLogic(ProximityListener):
    """Platform-independent application core.

    Identical on Android, S60 and WebView: the proxies have already
    absorbed every platform difference, so the business logic for handling
    proximity events lives in exactly one place (contrast the native
    variants, where it is scattered through receiver and listener
    callbacks).
    """

    def __init__(
        self,
        config: WorkforceConfig,
        location: LocationProxy,
        sms: SmsProxy,
        http: HttpProxy,
    ) -> None:
        self.config = config
        self.location = location
        self.sms = sms
        self.http = http
        self.entered_site = False
        self.activity_events: List[str] = []

    def start(self) -> None:
        """Register the proximity alert (uniform on every platform)."""
        site = self.config.site
        try:
            self.location.add_proximity_alert(
                site.latitude,
                site.longitude,
                0.0,
                site.radius_m,
                self.config.alert_timer_s,
                self,
            )
        except ProxyError:
            # Uniform errors replace platform-specific exceptions.
            raise

    def proximity_event(
        self,
        ref_latitude: float,
        ref_longitude: float,
        ref_altitude: float,
        current_location: Location,
        entering: bool,
    ) -> None:
        # business logic for handling proximity events — one place only
        if entering:
            self.entered_site = True
            self._log_event("arrived", current_location)
            self._notify_supervisor("Arrived at site")
        else:
            self.entered_site = False
            self._log_event("departed", current_location)

    def report_location(self) -> None:
        """Send the current position to the server."""
        location = self.location.get_location()
        result = self.http.post(
            f"http://{SERVER_HOST}{PATH_REPORT_LOCATION}",
            encode(
                {
                    "agent": self.config.agent.agent_id,
                    "latitude": location.latitude,
                    "longitude": location.longitude,
                    "timestamp_ms": location.timestamp_ms,
                }
            ),
        )
        if not result.ok:
            self.activity_events.append("report-failed")

    def _log_event(self, event: str, location: Location) -> None:
        result = self.http.post(
            f"http://{SERVER_HOST}{PATH_LOG_EVENT}",
            encode(
                {
                    "agent": self.config.agent.agent_id,
                    "event": event,
                    "detail": f"{location.latitude:.5f},{location.longitude:.5f}",
                    "timestamp_ms": location.timestamp_ms,
                }
            ),
        )
        if not result.ok:
            self.activity_events.append("log-failed")
        self.activity_events.append(event)

    def _notify_supervisor(self, text: str) -> None:
        try:
            self.sms.send_text_message(self.config.agent.supervisor_number, text)
        except ProxyError:
            self.activity_events.append("sms-failed")


# ---------------------------------------------------------------------------
# thin per-platform launchers (all the platform-specific code that remains)
# ---------------------------------------------------------------------------

def _policy_for(resilience, interface: str):
    """Resolve the per-interface ``resilience`` argument of a launcher.

    ``resilience`` may be ``None`` (factory default), ``False`` (bare
    proxies), a single policy applied to every proxy, or a callable
    ``interface -> policy`` (e.g. ``repro.core.resilience.chaos_policy``).
    """
    if callable(resilience):
        return resilience(interface)
    return resilience


def launch_on_android(
    platform, context, config: WorkforceConfig, *, resilience=None
) -> WorkforceLogic:
    """Android launcher: construct proxies, feed the context property."""
    location = create_proxy(
        "Location", platform, resilience=_policy_for(resilience, "Location")
    )
    location.set_property("context", context)
    location.set_property("provider", "gps")
    sms = create_proxy("Sms", platform, resilience=_policy_for(resilience, "Sms"))
    sms.set_property("context", context)
    http = create_proxy("Http", platform, resilience=_policy_for(resilience, "Http"))
    http.set_property("context", context)
    logic = WorkforceLogic(config, location, sms, http)
    logic.start()
    return logic


def launch_on_s60(platform, config: WorkforceConfig, *, resilience=None) -> WorkforceLogic:
    """S60 launcher: criteria knobs instead of a context."""
    location = create_proxy(
        "Location", platform, resilience=_policy_for(resilience, "Location")
    )
    location.set_property("preferredResponseTime", 1000)
    sms = create_proxy("Sms", platform, resilience=_policy_for(resilience, "Sms"))
    http = create_proxy("Http", platform, resilience=_policy_for(resilience, "Http"))
    logic = WorkforceLogic(config, location, sms, http)
    logic.start()
    return logic


def launch_on_webview(
    platform, config: WorkforceConfig, *, resilience=None
) -> WorkforceLogic:
    """WebView launcher: JS proxies from the active page."""
    location = create_proxy(
        "Location", platform, resilience=_policy_for(resilience, "Location")
    )
    location.set_property("provider", "gps")
    sms = create_proxy("Sms", platform, resilience=_policy_for(resilience, "Sms"))
    http = create_proxy("Http", platform, resilience=_policy_for(resilience, "Http"))
    logic = WorkforceLogic(config, location, sms, http)
    logic.start()
    return logic
