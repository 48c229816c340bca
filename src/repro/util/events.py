"""A small synchronous publish/subscribe bus.

Used by the device hardware (GPS fixes, radio state changes) and by the
Android substrate's broadcast machinery.  Delivery is synchronous and in
subscription order, which keeps platform behaviour deterministic under the
virtual clock.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from typing import Any, Callable, List, Tuple

Handler = Callable[[str, Any], None]


@dataclass
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; detaches the handler."""

    bus: "EventBus"
    topic_pattern: str
    handler: Handler = field(repr=False)
    token: int = 0
    active: bool = True
    #: Whether the pattern has glob syntax; a literal one matches by
    #: equality, which is what :func:`fnmatch.fnmatchcase` does for it.
    glob: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.glob = any(char in self.topic_pattern for char in "*?[")

    def matches(self, topic: str) -> bool:
        if self.glob:
            return fnmatchcase(topic, self.topic_pattern)
        return topic == self.topic_pattern

    def unsubscribe(self) -> None:
        """Stop receiving events.  Idempotent."""
        if self.active:
            self.active = False
            self.bus._remove(self)


class EventBus:
    """Topic-based synchronous event bus with glob topic patterns.

    Topics are dotted strings such as ``"gps.fix"`` or ``"radio.sms.sent"``.
    Patterns use :mod:`fnmatch` globbing, so ``"radio.*"`` receives every
    radio event; a pattern without ``*``, ``?`` or ``[`` is compared by
    plain equality.
    """

    def __init__(self) -> None:
        #: Replaced, never mutated, so a publish iterates a snapshot.
        self._subs: Tuple[Subscription, ...] = ()
        self._tokens = itertools.count(1)

    def subscribe(self, topic_pattern: str, handler: Handler) -> Subscription:
        """Register ``handler`` for every topic matching ``topic_pattern``."""
        sub = Subscription(self, topic_pattern, handler, token=next(self._tokens))
        self._subs += (sub,)
        return sub

    def _remove(self, sub: Subscription) -> None:
        self._subs = tuple(s for s in self._subs if s.token != sub.token)

    def publish(self, topic: str, payload: Any = None) -> int:
        """Deliver ``payload`` to all matching subscribers, in order.

        Returns the number of handlers invoked.  A handler subscribed
        during delivery first hears the next publish.  A subscription
        cancelled during delivery is skipped at once, so if one handler
        unsubscribes another that has not run yet, that one misses this
        publish too and is not counted.
        """
        delivered = 0
        for sub in self._subs:
            # :meth:`Subscription.matches`, inline: this runs per GPS fix.
            if sub.active and (
                fnmatchcase(topic, sub.topic_pattern)
                if sub.glob
                else topic == sub.topic_pattern
            ):
                sub.handler(topic, payload)
                delivered += 1
        return delivered

    def subscriber_count(self, topic: str) -> int:
        """Number of active subscribers that would receive ``topic``."""
        return sum(1 for sub in self._subs if sub.active and sub.matches(topic))

    def has_subscribers(self, topic: str) -> bool:
        """Whether a publish of ``topic`` now would reach any handler.

        A publisher asks this before building a payload nobody may read.
        """
        for sub in self._subs:
            if sub.active and sub.matches(topic):
                return True
        return False


class TypedSignal:
    """A single-topic variant of :class:`EventBus` with positional payloads.

    Handy for hardware units that expose exactly one kind of notification
    (e.g. a battery level signal).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._handlers: List[Callable[..., None]] = []

    def connect(self, handler: Callable[..., None]) -> Callable[[], None]:
        """Attach ``handler``; returns a zero-arg disconnect function."""
        self._handlers.append(handler)

        def disconnect() -> None:
            if handler in self._handlers:
                self._handlers.remove(handler)

        return disconnect

    def emit(self, *args: Any, **kwargs: Any) -> int:
        """Call every connected handler; returns how many ran."""
        handlers = list(self._handlers)
        for handler in handlers:
            handler(*args, **kwargs)
        return len(handlers)

    def __len__(self) -> int:
        return len(self._handlers)
