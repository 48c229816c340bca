"""The Calendar M-Proxy — the second half of the paper's future-work item
("calendaring and contact list information")."""

from repro.core.proxies.calendar.api import CalendarProxy

__all__ = ["CalendarProxy"]
