"""S60 binding of the Calendar proxy (JSR-75 EventList underneath)."""

from __future__ import annotations

from typing import List

from repro.core.proxies.calendar.api import CalendarProxy, overlapping
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.s60_common import S60Binding
from repro.core.proxy.datatypes import CalendarEvent
from repro.errors import ProxyInvalidArgumentError
from repro.platforms.s60.pim import Event, EventItem, PimStatics


def _to_uniform(item: EventItem) -> CalendarEvent:
    try:
        location = item.get_string(Event.LOCATION)
    except Exception:
        location = ""
    return CalendarEvent(
        event_id=item.record_id,
        summary=item.get_string(Event.SUMMARY),
        start_ms=item.get_date(Event.START),
        end_ms=item.get_date(Event.END),
        location=location,
    )


class S60CalendarProxyImpl(S60Binding, CalendarProxy):
    """``com.ibm.S60.calendar.CalendarProxy``."""

    def _open(self, mode: int):
        return self._platform.pim.open_pim_list(PimStatics.EVENT_LIST, mode)

    def _events(self) -> List[CalendarEvent]:
        event_list = self._open(PimStatics.READ_ONLY)
        try:
            return [_to_uniform(item) for item in event_list.items()]
        finally:
            event_list.close()

    def list_events(self) -> List[CalendarEvent]:
        return self._call("listEvents", self._events)

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        # JSR-75 offers no window query; filter client-side (binding note).
        return self._call(
            "eventsBetween",
            lambda: overlapping(self._events(), start_ms, end_ms),
            startMs=start_ms,
            endMs=end_ms,
        )

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        def attempt() -> str:
            if end_ms < start_ms:
                raise ProxyInvalidArgumentError("event ends before it starts")
            event_list = self._open(PimStatics.READ_WRITE)
            try:
                item = event_list.create_event()
                item.add_string(Event.SUMMARY, 0, summary)
                item.add_date(Event.START, 0, start_ms)
                item.add_date(Event.END, 0, end_ms)
                location = self.get_property("eventLocation")
                if location:
                    item.add_string(Event.LOCATION, 0, location)
                item.commit()
                return item.record_id
            finally:
                event_list.close()

        return self._call(
            "addEvent",
            attempt,
            summary=summary,
            startMs=start_ms,
            endMs=end_ms,
        )

    def remove_event(self, event_id: str) -> None:
        def attempt() -> None:
            event_list = self._open(PimStatics.READ_WRITE)
            try:
                for item in event_list.items():
                    if item.record_id == event_id:
                        event_list.remove_event(item)
                        return
            finally:
                event_list.close()

        self._call("removeEvent", attempt, eventId=event_id)


register_implementation("com.ibm.S60.calendar.CalendarProxy", S60CalendarProxyImpl)
