"""Every public operation of every shipped binding takes one invocation path.

``MProxy._call`` is the only way a binding reaches its platform, so on a
traced device each public call must open exactly one ``dispatch:<op>``
span carrying the ``interface`` and ``platform`` attributes, with the
factory-attached resilience runtime's ``resilience:<op>`` span beneath
it.  The cases are enumerated from the shipped descriptors, so a new
operation or binding is covered without editing this file.
"""

import math
import re

import pytest

from repro.apps.workforce import scenario
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy, standard_registry
from repro.core.proxy.callbacks import HttpResponseListener, ProximityListener
from repro.core.proxy.datatypes import CallHandle
from repro.device.network import HttpResponse
from repro.errors import ProxyInvalidArgumentError
from repro.obs import Observability
from repro.platforms.android.calendar_provider import READ_CALENDAR, WRITE_CALENDAR
from repro.platforms.android.contacts import READ_CONTACTS, WRITE_CONTACTS
from repro.platforms.s60.packaging import Jar, JarEntry, JadDescriptor, MidletSuite
from repro.platforms.s60.pim import (
    PERMISSION_EVENT_READ,
    PERMISSION_EVENT_WRITE,
    PERMISSION_PIM_READ,
    PERMISSION_PIM_WRITE,
)

PLATFORMS = ("android", "s60", "webview")
PACKAGE = "com.example.uniform"
URL = "http://api.test/ping"


class _Silent(ProximityListener, HttpResponseListener):
    def proximity_event(self, *args) -> None:
        pass

    def on_response(self, result) -> None:
        pass

    def on_error(self, reason) -> None:
        pass


LISTENER = _Silent()

#: Semantic-plane operation → arguments of one valid call.
ARGUMENTS = {
    "addProximityAlert": (
        scenario.SITE.latitude, scenario.SITE.longitude, 0.0, 500.0, -1, LISTENER
    ),
    "removeProximityAlert": (LISTENER,),
    "getLocation": (),
    "sendTextMessage": ("+77", "uniform hello"),
    "makeACall": ("+77",),
    "endCall": (CallHandle(call_id="unknown", number="+77"),),
    "get": (URL,),
    "post": (URL, "body"),
    "getAsync": (URL, LISTENER),
    "listContacts": (),
    "findByName": ("Ann",),
    "addContact": ("Ann", "+77"),
    "removeContact": ("unknown",),
    "listEvents": (),
    "eventsBetween": (0.0, 1_000.0),
    "addEvent": ("Stand-up", 0.0, 1_000.0),
    "removeEvent": ("unknown",),
}


def _cases():
    registry = standard_registry()
    for interface in registry.interfaces():
        descriptor = registry.descriptor(interface)
        for platform in PLATFORMS:
            if platform not in descriptor.platforms():
                continue
            for operation in descriptor.semantic.method_names():
                yield interface, platform, operation


CASES = list(_cases())


def _python_name(operation: str) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "_", operation).lower()


def _android_world(hub):
    sc = scenario.build_android(observability=hub)
    sc.platform.install(
        PACKAGE,
        scenario.ANDROID_PERMISSIONS
        | {READ_CONTACTS, WRITE_CONTACTS, READ_CALENDAR, WRITE_CALENDAR},
    )
    context = sc.platform.new_context(PACKAGE)

    def make(interface):
        proxy = create_proxy(interface, sc.platform)
        proxy.set_property("context", context)
        return proxy

    return sc, make


def _s60_world(hub):
    sc = scenario.build_s60(observability=hub)
    sc.platform.install_suite(
        MidletSuite(
            JadDescriptor(
                PACKAGE,
                permissions=[
                    PERMISSION_PIM_READ,
                    PERMISSION_PIM_WRITE,
                    PERMISSION_EVENT_READ,
                    PERMISSION_EVENT_WRITE,
                ],
            ),
            Jar("uniform.jar", [JarEntry("A.class", 1)]),
        )
    )
    sc.platform.pim.bind_suite(PACKAGE)
    return sc, lambda interface: create_proxy(interface, sc.platform)


def _webview_world(hub):
    sc = scenario.build_webview(observability=hub)
    sc.platform.android.install(
        PACKAGE,
        scenario.ANDROID_PERMISSIONS
        | {READ_CONTACTS, WRITE_CONTACTS, READ_CALENDAR, WRITE_CALENDAR},
    )
    webview = sc.platform.new_webview()
    WebViewPlatformExtension().install_wrappers(
        webview,
        sc.platform,
        sc.platform.android.new_context(PACKAGE),
        list(standard_registry().interfaces()),
    )
    webview.load_page(lambda window: None)
    return sc, lambda interface: create_proxy(interface, sc.platform)


WORLDS = {"android": _android_world, "s60": _s60_world, "webview": _webview_world}


@pytest.fixture(scope="module")
def worlds():
    """One traced world per platform, shared by every case (each call
    is independent and the tracer is reset before it)."""
    built = {}
    for platform, build in WORLDS.items():
        hub = Observability()
        sc, make = build(hub)
        server = sc.device.network.add_server("api.test")
        for method in ("GET", "POST"):
            server.route(method, "/ping", lambda request: HttpResponse(200, "pong"))
        built[platform] = (hub, make)
    return built


def test_the_s60_call_gap_is_the_only_missing_cell():
    covered = {(interface, platform) for interface, platform, _ in CASES}
    registry = standard_registry()
    missing = {
        (interface, platform)
        for interface in registry.interfaces()
        for platform in PLATFORMS
        if (interface, platform) not in covered
    }
    assert missing == {("Call", "s60")}
    assert {operation for _, _, operation in CASES} == set(ARGUMENTS)


@pytest.mark.parametrize(("interface", "platform", "operation"), CASES)
def test_one_dispatch_span_with_a_resilience_child(
    worlds, interface, platform, operation
):
    hub, make = worlds[platform]
    proxy = make(interface)
    tracer = hub.tracer
    tracer.reset()
    getattr(proxy, _python_name(operation))(*ARGUMENTS[operation])

    dispatches = [
        span for span in tracer.spans if span.name.startswith("dispatch:")
    ]
    assert [span.name for span in dispatches] == [f"dispatch:{operation}"]
    (dispatch,) = dispatches
    assert dispatch.attributes["interface"] == interface
    assert dispatch.attributes["platform"] == platform
    children = [child.name for child in tracer.children_of(dispatch)]
    assert f"resilience:{operation}" in children


#: ``(interface, operation, argument index, value)``: a NaN or infinite
#: number in a numeric dimension, each of which the semantic plane must
#: reject before any platform sees it.
NON_FINITE = [
    ("Location", "addProximityAlert", 0, math.nan),  # latitude
    ("Location", "addProximityAlert", 3, math.nan),  # radius
    ("Location", "addProximityAlert", 3, math.inf),  # radius
    ("Location", "addProximityAlert", 4, math.inf),  # expiration
    ("Calendar", "addEvent", 1, math.nan),  # start
    ("Calendar", "addEvent", 2, math.inf),  # end
]


@pytest.mark.parametrize("platform", PLATFORMS)
@pytest.mark.parametrize(("interface", "operation", "index", "value"), NON_FINITE)
def test_non_finite_numbers_are_invalid_arguments(
    worlds, platform, interface, operation, index, value
):
    _, make = worlds[platform]
    arguments = list(ARGUMENTS[operation])
    arguments[index] = value
    with pytest.raises(ProxyInvalidArgumentError) as raised:
        getattr(make(interface), _python_name(operation))(*arguments)
    assert raised.value.error_code == 1003
