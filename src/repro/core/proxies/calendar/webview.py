"""WebView binding of the Calendar proxy (synchronous JSON envelopes)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.proxies.calendar.android import AndroidCalendarProxyImpl
from repro.core.proxies.calendar.api import CalendarProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    bridge_entry,
    decode_or_raise,
)
from repro.core.proxy.datatypes import CalendarEvent


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


class CalendarWrapperJava(JavaWrapper):
    """Java side, step 2: the ``CalendarWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidCalendarProxyImpl

    @bridge_entry
    def list_events(self, handle: int) -> Dict:
        events = self._instance(handle).list_events()
        return {"events": [_event_payload(e) for e in events]}

    @bridge_entry
    def events_between(self, handle: int, start_ms: float, end_ms: float) -> Dict:
        events = self._instance(handle).events_between(start_ms, end_ms)
        return {"events": [_event_payload(e) for e in events]}

    @bridge_entry
    def add_event(self, handle: int, summary: str, start_ms: float, end_ms: float) -> Dict:
        return {"eventId": self._instance(handle).add_event(summary, start_ms, end_ms)}

    @bridge_entry
    def remove_event(self, handle: int, event_id: str) -> None:
        self._instance(handle).remove_event(event_id)


class CalendarProxyJs(JsProxy, CalendarProxy):
    """JS side: ``com.ibm.proxies.webview.calendar.CalendarProxyJs``."""

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
