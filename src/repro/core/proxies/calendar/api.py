"""The uniform Calendar proxy API."""

from __future__ import annotations

from typing import List

from repro.core.proxy.base import MProxy
from repro.core.proxy.datatypes import CalendarEvent


def overlapping(
    events: List[CalendarEvent], start_ms: float, end_ms: float
) -> List[CalendarEvent]:
    """The ``events`` overlapping the half-open window [start, end)."""
    return [
        event for event in events if event.start_ms < end_ms and start_ms < event.end_ms
    ]


class CalendarProxy(MProxy):
    """Abstract uniform API; platform bindings subclass this."""

    interface = "Calendar"

    def list_events(self) -> List[CalendarEvent]:
        """Every calendar entry, ordered by start time."""
        raise NotImplementedError

    def events_between(self, start_ms: float, end_ms: float) -> List[CalendarEvent]:
        """Entries overlapping the half-open window [start, end)."""
        raise NotImplementedError

    def add_event(self, summary: str, start_ms: float, end_ms: float) -> str:
        """Create an entry; returns its identifier.

        The ``eventLocation`` property supplies the entry's location.
        """
        raise NotImplementedError

    def remove_event(self, event_id: str) -> None:
        """Delete an entry.  Unknown ids are a no-op (uniform semantics)."""
        raise NotImplementedError
