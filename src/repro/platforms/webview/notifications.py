"""The Java-side Notification Table (paper Figure 6).

Callbacks cannot cross the JS/Java bridge, so a Java ``Callback object``
stores every asynchronous result here under a *notification id*; the JS
side polls the table (through a bridge method that returns JSON — a
string, hence bridge-legal) and dispatches to its local JS callbacks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.util.identifiers import IdGenerator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


@dataclass(frozen=True)
class Notification:
    """One asynchronous result destined for the JS domain.

    ``payload`` must be JSON-serializable primitives only; the table is on
    the Java side of the bridge and everything in it eventually crosses.
    """

    notification_id: str
    kind: str
    payload: Dict[str, Any]
    posted_at_ms: float


def batch_json(drained: List[Notification]) -> str:
    """One drain as the JSON string that crosses the bridge."""
    if not drained:  # most polls find nothing: skip the encoder
        return "[]"
    return json.dumps(
        [
            {"kind": n.kind, "payload": n.payload, "posted_at_ms": n.posted_at_ms}
            for n in drained
        ]
    )


class NotificationTable:
    """Maps notification id → queued notifications.

    ``new_id`` mints the identifier a Java wrapper returns from the
    originating call (e.g. ``sendTextMessage``); ``post`` appends results;
    ``drain_json`` is what the JS polling loop calls through the bridge.
    """

    def __init__(self, *, injector: Optional["FaultInjector"] = None) -> None:
        self._ids = IdGenerator()
        self._queues: Dict[str, List[Notification]] = {}
        self._posted_count = 0
        self._faults = injector
        #: Fault-plane observability: results silently lost before queueing.
        self.dropped = 0

    def new_id(self) -> str:
        """Mint a fresh notification id and create its (empty) queue."""
        notification_id = self._ids.next("notif")
        self._queues[notification_id] = []
        return notification_id

    def post(self, notification_id: str, kind: str, payload: Dict[str, Any], now_ms: float) -> None:
        """Queue a result for ``notification_id``.

        Payload values are validated as JSON-serializable immediately so a
        bad producer fails at post time, not at poll time.
        """
        if notification_id not in self._queues:
            raise KeyError(f"unknown notification id {notification_id!r}")
        json.dumps(payload)  # raises TypeError on non-primitive content
        if self._faults is not None and self._faults.active:
            if self._faults.decide("webview.notification") is not None:
                # The async result evaporates before reaching the table —
                # the JS poller simply never sees it.
                self.dropped += 1
                return
        self._queues[notification_id].append(
            Notification(notification_id, kind, dict(payload), now_ms)
        )
        self._posted_count += 1

    def pending(self, notification_id: str) -> int:
        """Queued-but-undrained count for an id."""
        return len(self._queues.get(notification_id, []))

    def drain(self, notification_id: str) -> List[Notification]:
        """Remove and return all queued notifications for an id (FIFO)."""
        queue = self._queues.get(notification_id)
        if not queue:
            return []
        drained = list(queue)
        queue.clear()
        return drained

    def drain_json(self, notification_id: str) -> str:
        """Bridge-legal drain: the queued notifications as a JSON string."""
        return batch_json(self.drain(notification_id))

    def close(self, notification_id: str) -> None:
        """Forget an id once its JS consumer is done polling."""
        self._queues.pop(notification_id, None)

    @property
    def total_posted(self) -> int:
        return self._posted_count
