"""Every Java wrapper entry answers JS through the one envelope path.

A wrapper entry cannot throw across the bridge, so a uniform error
travels as an error envelope carrying its code; only an exception that
is not a ``ProxyError`` escapes, and JS sees it untyped.
"""

import inspect
import json

import pytest

from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.platforms.webview.exceptions import BridgeMarshalError, JsBridgeError

INTERFACES = ["Location", "Sms", "Call", "Http", "Contacts", "Calendar"]
UNKNOWN_HANDLE = 99

#: (JS global, bridge entry, arguments after the instance handle).
LOOKUP_FIRST = [
    ("LocationWrapper", "add_proximity_alert", (28.6, 77.2, 0.0, 100.0, -1.0)),
    ("LocationWrapper", "get_location", ()),
    ("SmsWrapper", "send_text_message", ("+15550001", "hello")),
    ("CallWrapper", "make_a_call", ("+15550001",)),
    ("HttpWrapper", "get", ("http://api.test/ping",)),
    ("HttpWrapper", "post", ("http://api.test/ping", "body")),
    ("HttpWrapper", "get_async", ("http://api.test/ping",)),
    ("ContactsWrapper", "list_contacts", ()),
    ("ContactsWrapper", "find_by_name", ("Asha",)),
    ("ContactsWrapper", "add_contact", ("Asha", "+15550001")),
    ("ContactsWrapper", "remove_contact", ("contact-1",)),
    ("CalendarWrapper", "list_events", ()),
    ("CalendarWrapper", "events_between", (0.0, 1_000.0)),
    ("CalendarWrapper", "add_event", ("site visit", 0.0, 1_000.0)),
    ("CalendarWrapper", "remove_event", ("event-1",)),
    ("SmsWrapper", "set_property", ("deliveryReports", "true")),
]
#: Entries that answer an unknown notification or call id with ``ok``
#: before they look the instance handle up.
UNKNOWN_ID_IS_OK = [
    ("LocationWrapper", "remove_proximity_alert", ("notif-404",)),
    ("CallWrapper", "end_call", ("call-404",)),
]
#: Public wrapper methods that are not envelope entries.
NOT_ENVELOPED = {"create_instance", "get_notifications"}


def _ids(entries):
    return [f"{js_name}.{entry}" for js_name, entry, _ in entries]


@pytest.fixture
def installed(webview_scenario):
    webview = webview_scenario.platform.new_webview()
    wrappers = WebViewPlatformExtension().install_wrappers(
        webview, webview_scenario.platform, webview_scenario.new_context(), INTERFACES
    )
    return webview.load_page(lambda w: None), wrappers


@pytest.fixture
def window(installed):
    return installed[0]


def test_the_tables_name_every_envelope_entry(installed):
    _, wrappers = installed
    public = {
        (f"{interface}Wrapper", name)
        for interface, wrapper in wrappers.items()
        for name in dir(wrapper)
        if not name.startswith("_") and inspect.ismethod(getattr(wrapper, name))
    }
    entries = {
        (js_name, name) for js_name, name in public if name not in NOT_ENVELOPED
    }
    listed = {(js_name, entry) for js_name, entry, _ in LOOKUP_FIRST + UNKNOWN_ID_IS_OK}
    # set_property is the base class's entry, shared by all six wrappers.
    assert listed == {e for e in entries if e[1] != "set_property"} | {
        ("SmsWrapper", "set_property")
    }
    assert len(listed) == 18


def test_only_methods_cross(webview_scenario, installed):
    """A public callable that is not a method (the wrapper's binding
    class) is refused at lookup, before anything is charged."""
    window, wrappers = installed
    platform = webview_scenario.platform
    refused = []
    for interface, wrapper in wrappers.items():
        js_wrapper = window.bridge_object(f"{interface}Wrapper")
        for name in dir(wrapper):
            value = getattr(wrapper, name)
            if name.startswith("_") or not callable(value) or inspect.ismethod(value):
                continue
            before = (platform.clock.now_ms, platform.native_call_counts())
            with pytest.raises(BridgeMarshalError, match="not a bridged method"):
                getattr(js_wrapper, name)
            assert (platform.clock.now_ms, platform.native_call_counts()) == before
            refused.append((interface, name))
    assert refused == [(interface, "ANDROID_BINDING") for interface in INTERFACES]


@pytest.mark.parametrize("js_name, entry, args", LOOKUP_FIRST, ids=_ids(LOOKUP_FIRST))
def test_an_unknown_handle_is_an_error_envelope(window, js_name, entry, args):
    envelope = getattr(window.bridge_object(js_name), entry)(UNKNOWN_HANDLE, *args)
    assert json.loads(envelope) == {
        "ok": False,
        "error": 1000,
        "message": f"unknown wrapper instance handle {UNKNOWN_HANDLE}",
    }


@pytest.mark.parametrize(
    "js_name, entry, args", UNKNOWN_ID_IS_OK, ids=_ids(UNKNOWN_ID_IS_OK)
)
def test_an_unknown_id_is_ok_before_any_lookup(window, js_name, entry, args):
    envelope = getattr(window.bridge_object(js_name), entry)(UNKNOWN_HANDLE, *args)
    assert json.loads(envelope) == {"ok": True, "payload": {}}


def test_an_exception_that_is_not_a_proxy_error_reaches_js_untyped(window):
    swi = window.bridge_object("SmsWrapperFactory").create_sms_wrapper_instance()
    with pytest.raises(JsBridgeError) as raised:
        window.bridge_object("SmsWrapper").set_property(swi, "deliveryReports", "{true")
    assert raised.value.java_class == "JSONDecodeError"
