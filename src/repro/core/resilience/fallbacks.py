"""Graceful-degradation helpers: what to do when retries are exhausted.

Fallbacks are per-call-site hooks the bindings pass to ``MProxy._call``:

* :data:`LAST_RESULT` — serve the operation's last successful result
  (e.g. last-known location while GPS is dark);
* a callable ``fallback(error) -> value`` — compute a degraded value;
  returning :data:`UNHANDLED` declines, letting the error propagate;
* :class:`SmsRedeliveryQueue` — the SMS-specific fallback target: queue
  the message and re-attempt delivery on the virtual clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.errors import ConfigurationError, ProxyError
from repro.util.clock import Scheduler

#: Sentinel fallback: serve the last successful result of the operation.
LAST_RESULT = "last-result"

#: Sentinel a callable fallback returns to decline handling the error.
UNHANDLED = object()


@dataclass(frozen=True)
class RedeliveryConfig:
    """Tuning for :class:`SmsRedeliveryQueue`."""

    retry_delay_ms: float = 5_000.0
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.retry_delay_ms < 0:
            raise ConfigurationError("retry_delay_ms cannot be negative")
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")


@dataclass
class QueuedSms:
    """One message parked for redelivery."""

    queue_id: str
    destination: str
    text: str
    attempt: int = 1


class SmsRedeliveryQueue:
    """Store-and-retry queue for SMS sends that failed transiently.

    The proxy's fallback enqueues here instead of raising; the queue
    re-drives the proxy's ``send_text_message`` after ``retry_delay_ms``
    of virtual time, up to ``max_attempts`` tries per message.  While a
    queued attempt is in flight (``in_flight``) the proxy fallback
    declines, so a failing redelivery is re-queued exactly once by the
    queue itself rather than recursively by the fallback.
    """

    def __init__(
        self,
        scheduler: Scheduler,
        send: Callable[[str, str], object],
        config: Optional[RedeliveryConfig] = None,
    ) -> None:
        self._scheduler = scheduler
        self._send = send
        self._config = config or RedeliveryConfig()
        self._counter = 0
        self.in_flight = False
        self.pending: List[QueuedSms] = []
        self.delivered: List[QueuedSms] = []
        self.abandoned: List[QueuedSms] = []

    @property
    def config(self) -> RedeliveryConfig:
        return self._config

    def enqueue(self, destination: str, text: str, *, attempt: int = 1) -> str:
        """Park a message and schedule its redelivery attempt."""
        self._counter += 1
        entry = QueuedSms(
            queue_id=f"queued-sms-{self._counter}",
            destination=destination,
            text=text,
            attempt=attempt,
        )
        self.pending.append(entry)
        self._scheduler.call_later(
            self._config.retry_delay_ms,
            lambda: self._attempt(entry),
            name=f"sms-redelivery-{entry.queue_id}",
        )
        return entry.queue_id

    def _attempt(self, entry: QueuedSms) -> None:
        if entry not in self.pending:  # already resolved/cancelled
            return
        self.pending.remove(entry)
        self.in_flight = True
        try:
            self._send(entry.destination, entry.text)
        except ProxyError as error:
            if error.transient and entry.attempt < self._config.max_attempts:
                self.enqueue(
                    entry.destination, entry.text, attempt=entry.attempt + 1
                )
            else:
                self.abandoned.append(entry)
        else:
            self.delivered.append(entry)
        finally:
            self.in_flight = False

    def fallback_for(self, destination: str, text: str):
        """A ``_call``-compatible fallback that queues this message."""

        def fallback(error: ProxyError):
            if not error.transient or self.in_flight:
                return UNHANDLED
            return self.enqueue(destination, text)

        return fallback
