"""Android binding of the Calendar proxy (calendar provider underneath)."""

from __future__ import annotations

from typing import List

from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.calendar.api import CalendarProxy, overlapping
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import CalendarEvent
from repro.errors import ProxyInvalidArgumentError
from repro.platforms.android.calendar_provider import (
    CALENDAR_URI,
    COLUMN_DTEND,
    COLUMN_DTSTART,
    COLUMN_EVENT_LOCATION,
    COLUMN_ID,
    COLUMN_TITLE,
)
from repro.platforms.android.contacts import ContentValues


class AndroidCalendarProxyImpl(AndroidBinding, CalendarProxy):
    """``com.ibm.proxies.android.calendar.CalendarProxyImpl``."""

    def _resolver(self, for_what: str):
        return self._context(for_what).get_content_resolver()

    @staticmethod
    def _drain(cursor) -> List[CalendarEvent]:
        events = []
        while cursor.move_to_next():
            events.append(
                CalendarEvent(
                    event_id=cursor.get_string(COLUMN_ID),
                    summary=cursor.get_string(COLUMN_TITLE),
                    start_ms=float(cursor.get_string(COLUMN_DTSTART)),
                    end_ms=float(cursor.get_string(COLUMN_DTEND)),
                    location=cursor.get_string(COLUMN_EVENT_LOCATION) or "",
                )
            )
        cursor.close()
        return events

    def _events(self, for_what: str) -> List[CalendarEvent]:
        return self._drain(self._resolver(for_what).query(CALENDAR_URI))

    def list_events(self) -> List[CalendarEvent]:
        return self._call("listEvents", lambda: self._events("listEvents"))

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        # The provider has no window selection; filter client-side like a
        # real app would with a date-range selection clause.
        return self._call(
            "eventsBetween",
            lambda: overlapping(self._events("eventsBetween"), start_ms, end_ms),
            startMs=start_ms,
            endMs=end_ms,
        )

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        def attempt() -> str:
            if end_ms < start_ms:
                raise ProxyInvalidArgumentError("event ends before it starts")
            values = ContentValues()
            values.put(COLUMN_TITLE, summary)
            values.put(COLUMN_DTSTART, start_ms)
            values.put(COLUMN_DTEND, end_ms)
            values.put(COLUMN_EVENT_LOCATION, self.get_property("eventLocation"))
            row_uri = self._resolver("addEvent").insert(CALENDAR_URI, values)
            return row_uri.rsplit("/", 1)[-1]

        return self._call(
            "addEvent",
            attempt,
            summary=summary,
            startMs=start_ms,
            endMs=end_ms,
        )

    def remove_event(self, event_id: str) -> None:
        self._call(
            "removeEvent",
            lambda: self._resolver("removeEvent").delete(
                f"{CALENDAR_URI}/{event_id}"
            ),
            eventId=event_id,
        )


register_implementation(
    "com.ibm.proxies.android.calendar.CalendarProxyImpl", AndroidCalendarProxyImpl
)
