#!/usr/bin/env python
"""Extending MobiVine (paper Section 3.3): new interfaces, new platforms.

Two extension axes, both implemented:

1. **New interface** — the Contacts proxy (the paper's future-work item)
   gets the full three-plane treatment and works on all three platforms.
2. **New platform** — a vendor brings a BREW-like platform: they register
   the platform name, implement their substrate and publish ONLY a
   binding plane for the existing Http proxy.  The semantic and syntactic
   planes, the drawer, the dialogs and the uniform API all come for free.

Run:  python examples/extending_mobivine.py
"""

from repro.apps.workforce import scenario
from repro.core.descriptor.model import (
    BindingPlane,
    ExceptionSpec,
    known_platforms,
    register_platform,
)
from repro.core.descriptor.registry import ProxyRegistry
from repro.core.plugin.drawer import ProxyDrawer
from repro.core.proxies import create_proxy
from repro.core.proxies.factory import descriptors_dir, register_implementation
from repro.core.proxies.http.api import HttpProxy
from repro.core.proxy.datatypes import HttpResult
from repro.device.device import MobileDevice
from repro.device.network import HttpRequest, HttpResponse
from repro.platforms.android.calendar_provider import READ_CALENDAR, WRITE_CALENDAR
from repro.platforms.android.contacts import READ_CONTACTS, WRITE_CONTACTS
from repro.platforms.base import PlatformBase


def demo_contacts_interface():
    print("== 1. New interfaces: Contacts and Calendar (the paper's future work) ==")
    sc = scenario.build_android()
    sc.platform.install(
        "pim", {READ_CONTACTS, WRITE_CONTACTS, READ_CALENDAR, WRITE_CALENDAR}
    )
    context = sc.platform.new_context("pim")
    proxy = create_proxy("Contacts", sc.platform)
    proxy.set_property("context", context)
    proxy.add_contact("Region Supervisor", "+915550001")
    proxy.add_contact("Dispatch Desk", "+915550002")
    for contact in proxy.list_contacts():
        print(f"  {contact.name:20s} {contact.primary_number}")
    print(f"  find 'disp' -> {[c.name for c in proxy.find_by_name('disp')]}")

    calendar = create_proxy("Calendar", sc.platform)
    calendar.set_property("context", context)
    calendar.set_property("eventLocation", "site-7")
    calendar.add_event("Maintenance window", 3_600_000.0, 7_200_000.0)
    calendar.add_event("Shift handover", 7_200_000.0, 7_500_000.0)
    for event in calendar.events_between(0.0, 7_200_000.0):
        print(f"  event: {event.summary!r} at {event.location} "
              f"({event.duration_ms / 60000:.0f} min)")


class BrewPlatform(PlatformBase):
    """The vendor's minimal substrate: one blocking fetch call."""

    platform_name = "brew"

    def brew_fetch(self, method, url, body=""):
        from urllib.parse import urlparse

        parsed = urlparse(url)
        self.charge_native("brew.fetch")
        response = self.device.network.request(
            HttpRequest(method=method, host=parsed.netloc,
                        path=parsed.path or "/", body=body)
        )
        return response.status, response.body


class BrewHttpProxyImpl(HttpProxy):
    """The vendor's ONLY MobiVine artifact: the Http binding."""

    def __init__(self, descriptor, platform):
        super().__init__(descriptor, "brew")
        self._platform = platform

    def get(self, url):
        status, body = self._call(
            "get", lambda: self._platform.brew_fetch("GET", url), url=url
        )
        return HttpResult(status=status, body=body)

    def post(self, url, body):
        status, response_body = self._call(
            "post",
            lambda: self._platform.brew_fetch("POST", url, body),
            url=url,
            body=body,
        )
        return HttpResult(status=status, body=response_body)


def demo_new_platform():
    print("\n== 2. New platform: binding-only extension ==")
    print(f"  platforms before: {known_platforms()}")
    register_platform("brew", "java")
    register_implementation("com.vendor.brew.http.HttpProxyImpl", BrewHttpProxyImpl)
    print(f"  platforms after : {known_platforms()}")

    registry = ProxyRegistry()
    registry.register_xml((descriptors_dir() / "http.xml").read_text())  # existing planes
    registry.add_binding(
        "Http",
        BindingPlane(
            platform="brew",
            language="java",
            implementation_class="com.vendor.brew.http.HttpProxyImpl",
            exceptions=(
                ExceptionSpec("com.vendor.brew.BrewIOError", "ProxyPlatformError", 1005),
            ),
        ),
    )
    print(f"  Http bindings   : {registry.descriptor('Http').platforms()}")
    print(f"  brew drawer     : {ProxyDrawer(registry, 'brew').categories()}")

    device = MobileDevice("+61")
    platform = BrewPlatform(device)
    device.network.add_server("api.example.com").route(
        "GET", "/status", lambda r: HttpResponse(200, "serving brew")
    )
    proxy = create_proxy("Http", platform, registry=registry)
    result = proxy.get("http://api.example.com/status")
    print(f"  uniform call    : GET /status -> {result.status} {result.body!r}")
    print("  (semantic plane, syntactic plane, drawer and dialog: all reused)")


if __name__ == "__main__":
    demo_contacts_interface()
    demo_new_platform()
