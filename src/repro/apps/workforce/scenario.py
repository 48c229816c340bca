"""Ready-made workforce scenarios: device + platform + server wiring.

Shared by the integration tests, the examples, and the evaluation
benchmarks so they all drive the same world: an agent who starts away from
the site, travels to it, works, and leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.apps.workforce.common import AgentProfile, SiteRegion, WorkforceConfig
from repro.apps.workforce.server import WorkforceServer
from repro.device.device import MobileDevice
from repro.device.gps import Trajectory, Waypoint
from repro.faults.plan import FaultPlan
from repro.obs import Observability
from repro.platforms.android.location import ACCESS_FINE_LOCATION
from repro.platforms.android.http import INTERNET
from repro.platforms.android.platform import AndroidPlatform
from repro.platforms.android.telephony import CALL_PHONE, SEND_SMS
from repro.platforms.android.versions import SdkVersion
from repro.platforms.s60.connector import PERMISSION_HTTP
from repro.platforms.s60.location import PERMISSION_LOCATION
from repro.platforms.s60.messaging import PERMISSION_SMS_SEND
from repro.platforms.s60.packaging import Jar, JarEntry, JadDescriptor, MidletSuite
from repro.platforms.s60.platform import S60Platform
from repro.platforms.webview.platform import WebViewPlatform
from repro.util.geo import GeoPoint, destination_point
from repro.util.latency import LatencyModel

#: The work site every standard scenario uses.
SITE = SiteRegion(
    site_id="site-7",
    latitude=28.6,
    longitude=77.2,
    radius_m=500.0,
    description="substation maintenance",
)

AGENT = AgentProfile(
    agent_id="agent-42",
    phone_number="+915550042",
    supervisor_number="+915550001",
)

#: Android application package / S60 suite name used by the scenarios.
PACKAGE = "com.ibm.workforce"

ANDROID_PERMISSIONS = {ACCESS_FINE_LOCATION, SEND_SMS, CALL_PHONE, INTERNET}
S60_PERMISSIONS = [PERMISSION_LOCATION, PERMISSION_SMS_SEND, PERMISSION_HTTP]


def standard_config(alert_timer_s: float = -1.0) -> WorkforceConfig:
    return WorkforceConfig(agent=AGENT, site=SITE, alert_timer_s=alert_timer_s)


def commute_trajectory(
    *,
    leg_ms: float = 60_000.0,
    away_distance_m: float = 2_000.0,
) -> Trajectory:
    """away → site → away → site: two visits, exercising enter and exit."""
    home = GeoPoint(SITE.latitude, SITE.longitude)
    away = destination_point(SITE.latitude, SITE.longitude, 90.0, away_distance_m)
    return Trajectory(
        [
            Waypoint(0.0, away),
            Waypoint(leg_ms, home),
            Waypoint(2 * leg_ms, away),
            Waypoint(3 * leg_ms, home),
        ]
    )


@dataclass
class AndroidScenario:
    device: MobileDevice
    platform: AndroidPlatform
    server: WorkforceServer
    config: WorkforceConfig

    def new_context(self):
        return self.platform.new_context(PACKAGE)


def build_android(
    *,
    sdk_version: SdkVersion = SdkVersion.M5_RC15,
    latency: Optional[LatencyModel] = None,
    alert_timer_s: float = -1.0,
    fault_plan: Optional[FaultPlan] = None,
    observability: Optional[Observability] = None,
) -> AndroidScenario:
    device = MobileDevice(
        AGENT.phone_number,
        trajectory=commute_trajectory(),
        fault_plan=fault_plan,
        observability=observability,
    )
    platform = AndroidPlatform(device, sdk_version=sdk_version, latency=latency)
    platform.install(PACKAGE, ANDROID_PERMISSIONS)
    server = WorkforceServer(device.network)
    return AndroidScenario(device, platform, server, standard_config(alert_timer_s))


@dataclass
class S60Scenario:
    device: MobileDevice
    platform: S60Platform
    server: WorkforceServer
    config: WorkforceConfig


def build_s60(
    *,
    latency: Optional[LatencyModel] = None,
    alert_timer_s: float = -1.0,
    fault_plan: Optional[FaultPlan] = None,
    observability: Optional[Observability] = None,
) -> S60Scenario:
    device = MobileDevice(
        AGENT.phone_number,
        trajectory=commute_trajectory(),
        fault_plan=fault_plan,
        observability=observability,
    )
    platform = S60Platform(device, latency=latency)
    suite = MidletSuite(
        JadDescriptor(PACKAGE, permissions=list(S60_PERMISSIONS)),
        Jar("workforce.jar", [JarEntry("WorkForceManagement.class", 4096)]),
    )
    platform.install_suite(suite)
    platform.location_provider.bind_suite(PACKAGE)
    platform.connector.bind_suite(PACKAGE)
    server = WorkforceServer(device.network)
    return S60Scenario(device, platform, server, standard_config(alert_timer_s))


@dataclass
class WebViewScenario:
    device: MobileDevice
    platform: WebViewPlatform
    server: WorkforceServer
    config: WorkforceConfig

    def new_context(self):
        return self.platform.android.new_context(PACKAGE)


def build_webview(
    *,
    latency: Optional[LatencyModel] = None,
    android_latency: Optional[LatencyModel] = None,
    alert_timer_s: float = -1.0,
    fault_plan: Optional[FaultPlan] = None,
    observability: Optional[Observability] = None,
) -> WebViewScenario:
    device = MobileDevice(
        AGENT.phone_number,
        trajectory=commute_trajectory(),
        fault_plan=fault_plan,
        observability=observability,
    )
    android = AndroidPlatform(device, latency=android_latency)
    android.install(PACKAGE, ANDROID_PERMISSIONS)
    platform = WebViewPlatform(device, android=android, latency=latency)
    server = WorkforceServer(device.network)
    return WebViewScenario(device, platform, server, standard_config(alert_timer_s))
