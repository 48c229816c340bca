"""Replicated notification table: the Figure-6 table across regions.

Drop-in replacement for the single-node WebView
:class:`~repro.platforms.webview.notifications.NotificationTable`
(same API: ``new_id`` / ``post`` / ``pending`` / ``drain`` /
``drain_json`` / ``close`` / ``total_posted`` / ``dropped``), with the
queue state stored per-id in a :class:`~repro.distrib.replication.ReplicatedTable`
instead of a local dict.  All *mutations* happen at the home region —
the WebView's JS/Java bridge is a single-device construct — but every
post replicates, so a peer region (a failover poller, an analytics
reader) converges on the same queues.  :meth:`pending_in` exposes the
cross-region view; the drain counter replicates too, so a drained
queue does not resurrect on a late replica.

The per-id value shape is ``{"events": [...], "drained": n}`` where
``events`` holds every event ever posted and ``drained`` how many of
them the JS poller already consumed — append-only plus a cursor, so
LWW merges never lose events to replica races.  ``close`` tombstones
the id (``None``), which also replicates.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.platforms.webview.notifications import Notification, batch_json
from repro.util.identifiers import IdGenerator

from repro.distrib.replication import ReplicatedTable

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.injector import FaultInjector


class ReplicatedNotificationTable:
    """NotificationTable API over a replicated backing table."""

    def __init__(
        self,
        backing: ReplicatedTable,
        *,
        injector: Optional["FaultInjector"] = None,
    ) -> None:
        self.backing = backing
        self._ids = IdGenerator()
        self._faults = injector
        self._posted_count = 0
        #: Fault-plane observability: results silently lost before queueing.
        self.dropped = 0

    @property
    def _home(self) -> str:
        return self.backing.config.home_region

    def _state(self, notification_id: str, *, region: Optional[str] = None):
        return self.backing.get(notification_id, region=region)

    # -- NotificationTable API ------------------------------------------------

    def new_id(self) -> str:
        """Mint a fresh notification id and create its (empty) queue."""
        notification_id = self._ids.next("notif")
        self.backing.put(
            notification_id, {"events": [], "drained": 0}, region=self._home
        )
        return notification_id

    def post(
        self,
        notification_id: str,
        kind: str,
        payload: Dict[str, Any],
        now_ms: float,
    ) -> None:
        """Queue a result for ``notification_id`` (home-region write)."""
        state = self._state(notification_id)
        if state is None:
            raise KeyError(f"unknown notification id {notification_id!r}")
        json.dumps(payload)  # raises TypeError on non-primitive content
        if self._faults is not None and self._faults.active:
            if self._faults.decide("webview.notification") is not None:
                self.dropped += 1
                return
        events = list(state["events"])
        events.append(
            {"kind": kind, "payload": dict(payload), "posted_at_ms": now_ms}
        )
        self.backing.put(
            notification_id,
            {"events": events, "drained": state["drained"]},
            region=self._home,
        )
        self._posted_count += 1

    def pending(self, notification_id: str) -> int:
        """Queued-but-undrained count for an id (home-region view)."""
        return self.pending_in(self._home, notification_id)

    def pending_in(self, region: str, notification_id: str) -> int:
        """The undrained count as ``region`` currently sees it — lags the
        home region by the replication delay (or a partition)."""
        state = self._state(notification_id, region=region)
        if state is None:
            return 0
        return len(state["events"]) - state["drained"]

    def drain(self, notification_id: str) -> List[Notification]:
        """Remove and return all queued notifications for an id (FIFO).

        A non-empty drain advances the replicated cursor — a home-region
        write like any other — under a ``notify.drain`` span so the
        causal analyzer sees the drain (and its replication to peer
        regions) as one hop.
        """
        state = self._state(notification_id)
        if state is None:
            return []
        fresh = state["events"][state["drained"]:]
        if fresh:
            cursor = {
                "events": state["events"],
                "drained": len(state["events"]),
            }
            tracer = self.backing._tracer
            if tracer is not None:
                with tracer.span(
                    "notify.drain",
                    table=self.backing.name,
                    notification_id=notification_id,
                    region=self._home,
                    drained=len(fresh),
                ):
                    self.backing.put(
                        notification_id, cursor, region=self._home
                    )
            else:
                self.backing.put(notification_id, cursor, region=self._home)
        return [
            Notification(notification_id, e["kind"], e["payload"], e["posted_at_ms"])
            for e in fresh
        ]

    def drain_json(self, notification_id: str) -> str:
        """Bridge-legal drain: the queued notifications as a JSON string."""
        return batch_json(self.drain(notification_id))

    def close(self, notification_id: str) -> None:
        """Forget an id once its JS consumer is done polling."""
        if self._state(notification_id) is not None:
            self.backing.delete(notification_id, region=self._home)

    @property
    def total_posted(self) -> int:
        return self._posted_count
