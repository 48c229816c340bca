"""WebView binding of the Calendar proxy (synchronous JSON envelopes)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.proxies.calendar.android import AndroidCalendarProxyImpl
from repro.core.proxies.calendar.api import CalendarProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    WrapperFactory,
    decode_or_raise,
    encode_error,
    encode_ok,
)
from repro.core.proxy.datatypes import CalendarEvent
from repro.errors import ProxyError
from repro.platforms.android.context import Context
from repro.platforms.webview.platform import WebViewPlatform
from repro.platforms.webview.webview import WebView

FACTORY_JS_NAME = "CalendarWrapperFactory"
WRAPPER_JS_NAME = "CalendarWrapper"


def _event_payload(event: CalendarEvent) -> Dict:
    return {
        "eventId": event.event_id,
        "summary": event.summary,
        "startMs": event.start_ms,
        "endMs": event.end_ms,
        "location": event.location,
    }


def _event_from_payload(payload: Dict) -> CalendarEvent:
    return CalendarEvent(
        event_id=payload["eventId"],
        summary=payload["summary"],
        start_ms=payload["startMs"],
        end_ms=payload["endMs"],
        location=payload.get("location", ""),
    )


class CalendarWrapperFactory(WrapperFactory):
    """Java side, step 1."""

    def create_calendar_wrapper_instance(self) -> int:
        return self._wrapper.create_instance()


class CalendarWrapperJava(JavaWrapper):
    """Java side, step 2: the ``CalendarWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidCalendarProxyImpl

    def list_events(self, handle: int) -> str:
        try:
            events = self._backend.instance(handle).list_events()
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"events": [_event_payload(e) for e in events]})

    def events_between(self, handle: int, start_ms: float, end_ms: float) -> str:
        try:
            events = self._backend.instance(handle).events_between(start_ms, end_ms)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"events": [_event_payload(e) for e in events]})

    def add_event(self, handle: int, summary: str, start_ms: float, end_ms: float) -> str:
        try:
            event_id = self._backend.instance(handle).add_event(
                summary, start_ms, end_ms
            )
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok({"eventId": event_id})

    def remove_event(self, handle: int, event_id: str) -> str:
        try:
            self._backend.instance(handle).remove_event(event_id)
        except ProxyError as exc:
            return encode_error(exc)
        return encode_ok()


def install_calendar_wrapper(
    webview: WebView, platform: WebViewPlatform, context: Context
) -> CalendarWrapperJava:
    """Inject the Java side into a WebView (the plugin extension's job)."""
    wrapper = CalendarWrapperJava(platform, context)
    webview.add_javascript_interface(
        CalendarWrapperFactory(wrapper), FACTORY_JS_NAME
    )
    webview.add_javascript_interface(wrapper, WRAPPER_JS_NAME)
    return wrapper


class CalendarProxyJs(JsProxy, CalendarProxy):
    """JS side: ``com.ibm.proxies.webview.calendar.CalendarProxyJs``."""

    FACTORY_JS_NAME = FACTORY_JS_NAME
    WRAPPER_JS_NAME = WRAPPER_JS_NAME
    CREATE_INSTANCE = "create_calendar_wrapper_instance"

    @staticmethod
    def _events(envelope_json: str) -> List[CalendarEvent]:
        payload = decode_or_raise(envelope_json)
        return [_event_from_payload(e) for e in payload["events"]]

    def list_events(self) -> List[CalendarEvent]:
        return self._call(
            "listEvents", lambda: self._events(self._wrapper.list_events(self._swi))
        )

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        return self._call(
            "eventsBetween",
            lambda: self._events(
                self._wrapper.events_between(self._swi, float(start_ms), float(end_ms))
            ),
            startMs=start_ms,
            endMs=end_ms,
        )

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        payload = self._call(
            "addEvent",
            lambda: decode_or_raise(
                self._wrapper.add_event(
                    self._swi, summary, float(start_ms), float(end_ms)
                )
            ),
            summary=summary,
            startMs=start_ms,
            endMs=end_ms,
        )
        return payload["eventId"]

    def remove_event(self, event_id: str) -> None:
        self._call(
            "removeEvent",
            lambda: decode_or_raise(self._wrapper.remove_event(self._swi, event_id)),
            eventId=event_id,
        )


register_implementation(
    "com.ibm.proxies.webview.calendar.CalendarProxyJs", CalendarProxyJs
)
