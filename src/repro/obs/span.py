"""The span model: one timed unit of work inside the M-Proxy stack.

A span is stamped in *virtual* milliseconds from the device's
:class:`~repro.util.clock.SimulatedClock` only, so its timestamps are
deterministic.  The wall-clock cost of a layer is measured from outside
the program (``python3 -m benchmarks.e2e run --trace``), never stamped
on spans.

Span identifiers are small sequential integers drawn from the owning
tracer, never random — two runs of the same seeded scenario produce the
same ids in the same order, which is what makes trace exports
byte-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


#: Attribute value types exported as-is; anything else is ``repr``'d.
_SCALARS = (str, int, float, bool, type(None))
#: The same types matched exactly, for the common all-scalar case.
_SCALAR_TYPES = frozenset(_SCALARS)


def _clean_attributes(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Attributes must be JSON-representable scalars (exporters rely on it).

    When every value's exact type is a scalar the caller's dict is
    returned as it is, so every caller must pass a fresh dict it owns
    (a ``**attributes`` parameter).  Otherwise scalar instances, an
    ``IntEnum`` or a ``str`` subclass included, are kept as they are and
    anything else is ``repr``'d into a new dict.
    """
    for value in attributes.values():
        if type(value) not in _SCALAR_TYPES:
            return {
                key: value if isinstance(value, _SCALARS) else repr(value)
                for key, value in attributes.items()
            }
    return attributes


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (virtual-clock stamped)."""

    name: str
    t_virtual_ms: float
    attributes: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "t_virtual_ms": round(self.t_virtual_ms, 6),
            "attributes": self.attributes,
        }


#: The ``events`` of a span that has none: one shared empty tuple, which
#: :meth:`Span.add_event` replaces with the span's own list.
_NO_EVENTS: Tuple[SpanEvent, ...] = ()


class Span:
    """One node of a trace tree.

    A slotted class with a dataclass's constructor, fields, ``==`` and
    ``repr``, and no hash (``requires-python`` is 3.9, so
    ``dataclass(slots=True)`` is not available).  Most spans never get
    an event, so ``events`` is the shared empty tuple until
    :meth:`add_event`, its only writer, makes the list; a span without
    events equals one built with ``events=[]``.
    """

    __slots__ = (
        "name", "trace_id", "span_id", "parent_id", "start_virtual_ms",
        "end_virtual_ms", "status", "error", "attributes", "events",
    )

    __hash__ = None  # mutable, like an ``eq=True`` dataclass

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start_virtual_ms: float,
        end_virtual_ms: Optional[float] = None,
        status: str = STATUS_OK,
        error: Optional[str] = None,
        attributes: Optional[Dict[str, Any]] = None,
        events: Optional[List[SpanEvent]] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_virtual_ms = start_virtual_ms
        self.end_virtual_ms = end_virtual_ms
        self.status = status
        self.error = error
        self.attributes = {} if attributes is None else attributes
        self.events = _NO_EVENTS if events is None else events

    def _fields(self) -> tuple:
        return (
            self.name, self.trace_id, self.span_id, self.parent_id,
            self.start_virtual_ms, self.end_virtual_ms, self.status,
            self.error, self.attributes, self.events or [],
        )

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(name={self.name!r}, "
            f"trace_id={self.trace_id!r}, span_id={self.span_id!r}, "
            f"parent_id={self.parent_id!r}, "
            f"start_virtual_ms={self.start_virtual_ms!r}, "
            f"end_virtual_ms={self.end_virtual_ms!r}, status={self.status!r}, "
            f"error={self.error!r}, attributes={self.attributes!r}, "
            f"events={self.events or []!r})"
        )

    # -- recording -----------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value if isinstance(value, _SCALARS) else repr(value)

    def add_event(self, name: str, t_virtual_ms: float, **attributes: Any) -> SpanEvent:
        event = SpanEvent(name, t_virtual_ms, _clean_attributes(attributes))
        if self.events is _NO_EVENTS:
            self.events = [event]
        else:
            self.events.append(event)
        return event

    def mark_error(self, error: BaseException) -> None:
        self.status = STATUS_ERROR
        self.error = f"{type(error).__name__}: {error}"

    # -- reading -------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.end_virtual_ms is not None

    @property
    def duration_virtual_ms(self) -> float:
        """Virtual time spent in this span (0.0 while unfinished)."""
        if self.end_virtual_ms is None:
            return 0.0
        return self.end_virtual_ms - self.start_virtual_ms

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic dict form: exports of seeded runs are
        byte-identical across executions."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_virtual_ms": round(self.start_virtual_ms, 6),
            "end_virtual_ms": (
                None if self.end_virtual_ms is None else round(self.end_virtual_ms, 6)
            ),
            "status": self.status,
            "error": self.error,
            "attributes": self.attributes,
            "events": [event.to_dict() for event in self.events],
        }
