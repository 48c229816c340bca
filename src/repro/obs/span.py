"""The span model: one timed unit of work inside the M-Proxy stack.

A span is stamped with **two** clocks:

* *virtual* milliseconds from the device's
  :class:`~repro.util.clock.SimulatedClock` — deterministic, and the
  only timestamps that appear in exported traces by default;
* *real* milliseconds from ``perf_counter`` — the Python execution cost
  of the span, used by the profiling benchmarks and excluded from
  deterministic exports.

Span identifiers are small sequential integers drawn from the owning
tracer, never random — two runs of the same seeded scenario produce the
same ids in the same order, which is what makes trace exports
byte-comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Span status values.
STATUS_OK = "ok"
STATUS_ERROR = "error"


#: Attribute value types exported as-is; anything else is ``repr``'d.
_SCALARS = (str, int, float, bool, type(None))


def _clean_attributes(attributes: Dict[str, Any]) -> Dict[str, Any]:
    """Attributes must be JSON-representable scalars (exporters rely on it)."""
    return {
        key: value if isinstance(value, _SCALARS) else repr(value)
        for key, value in attributes.items()
    }


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


@dataclass
class Span:
    """One node of a trace tree."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start_virtual_ms: float
    start_real_ms: float
    end_virtual_ms: Optional[float] = None
    end_real_ms: Optional[float] = None
    status: str = STATUS_OK
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    # -- recording -----------------------------------------------------------

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value if isinstance(value, _SCALARS) else repr(value)

    def add_event(self, name: str, t_virtual_ms: float, **attributes: Any) -> SpanEvent:
        event = SpanEvent(name, t_virtual_ms, _clean_attributes(attributes))
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

    @property
    def duration_real_ms(self) -> float:
        """Real (Python execution) time spent in this span."""
        if self.end_real_ms is None:
            return 0.0
        return self.end_real_ms - self.start_real_ms

    def to_dict(self, *, include_real_time: bool = False) -> Dict[str, Any]:
        """Deterministic dict form.

        Real-time stamps are excluded by default so that exports of
        seeded runs are byte-identical across executions; pass
        ``include_real_time=True`` for profiling output.
        """
        out: Dict[str, Any] = {
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
        if include_real_time:
            out["start_real_ms"] = self.start_real_ms
            out["end_real_ms"] = self.end_real_ms
        return out
