"""Tracers: the span factory threaded through the M-Proxy stack.

Two implementations share one duck type:

* :class:`Tracer` — records hierarchical spans stamped with virtual and
  real time.  Single-threaded by design (the whole simulation is), so
  the "current span" is a plain stack, not a context variable.
* :class:`NoopTracer` — the default attached to every device.  Its
  ``enabled`` flag is ``False`` and every instrumentation site checks
  that flag *before* doing any span work, which is what keeps the
  Figure-10 invocation path at its pre-observability cost.

Determinism: span and trace ids are sequential integers; virtual
timestamps come from the bound :class:`~repro.util.clock.SimulatedClock`.
The only wall-clock read in the subsystem is the per-span real-time
stamp below, which never feeds back into simulation behaviour and is
excluded from deterministic exports.
"""

from __future__ import annotations

import contextlib
import itertools
import time
from typing import Any, Iterator, List, Optional

from repro.obs.span import Span, _clean_attributes
from repro.util.clock import SimulatedClock


def _real_now_ms() -> float:
    """Real-time stamp for span profiling (never drives simulation)."""
    return time.perf_counter() * 1_000.0  # wall-clock: measurement


class NoopTracer:
    """The zero-cost tracer: every operation is a no-op.

    Instrumentation sites should guard on :attr:`enabled` and skip span
    construction entirely; the methods below exist so that code holding
    a tracer reference never needs an ``is None`` dance.
    """

    enabled = False

    @property
    def current_span(self) -> None:
        return None

    @contextlib.contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[None]:
        yield None

    def event(self, name: str, **attributes: Any) -> None:
        pass

    def bind_clock(self, clock: SimulatedClock) -> None:
        pass

    def add_sink(self, sink) -> None:
        pass

    retaining = False

    def set_retention(self, retain: bool) -> None:
        pass

    @property
    def spans(self) -> List[Span]:
        return []

    def finished_spans(self) -> List[Span]:
        return []

    def reset(self) -> None:
        pass


#: Shared no-op instance (stateless, safe to share across devices).
NOOP_TRACER = NoopTracer()


class _SpanScope:
    """What ``with tracer.span(...)`` enters: opens the span on entry and
    ends it on exit, marking it ``error`` when an exception escapes (the
    exception is re-raised)."""

    __slots__ = ("_tracer", "_name", "_attributes", "_span")

    def __init__(self, tracer: "Tracer", name: str, attributes: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attributes = attributes

    def __enter__(self) -> Span:
        self._span = self._tracer.start_span(self._name, **self._attributes)
        return self._span

    def __exit__(self, exc_type, exc, traceback) -> bool:
        if exc is not None:
            self._span.mark_error(exc)
        self._tracer.end_span(self._span)
        return False


class Tracer:
    """Records hierarchical spans against a virtual clock.

    Parameters
    ----------
    clock:
        The virtual clock stamping span boundaries.  May be bound later
        (``bind_clock``) — a device adopts the tracer during
        construction; until then virtual stamps read 0.0.
    capture_real_time:
        When ``False``, real-time stamps are recorded as 0.0 — useful
        for tests that want fully constant span objects.
    """

    enabled = True

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        *,
        capture_real_time: bool = True,
        retain: bool = True,
    ) -> None:
        self._clock = clock
        self._capture_real_time = capture_real_time
        self._spans: List[Span] = []
        self._stack: List[Span] = []
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._sinks: List[Any] = []
        #: Streaming mode (``retain=False``): spans flow to sinks and are
        #: discarded once their trace completes — the telemetry pipeline's
        #: bounded ring becomes the only retention, keeping the tracer
        #: O(deepest trace) instead of O(run length).
        self._retain = retain
        # Read-path indices: children by parent id, roots and finished
        # spans in completion order, plus memoized snapshot lists so the
        # analyze/ modules never rescan ``_spans`` per call.
        self._children: dict = {}
        self._roots: List[Span] = []
        self._spans_cache: Optional[List[Span]] = None
        self._finished_cache: Optional[List[Span]] = None

    def bind_clock(self, clock: SimulatedClock) -> None:
        """Adopt the device's virtual clock (done by ``MobileDevice``)."""
        self._clock = clock

    # -- span lifecycle ------------------------------------------------------

    @property
    def current_span(self) -> Optional[Span]:
        """The innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span as a child of the current span (manual lifecycle;
        prefer the :meth:`span` context manager)."""
        stack = self._stack
        clock = self._clock
        parent = stack[-1] if stack else None
        span = Span(
            name,
            parent.trace_id if parent is not None else next(self._trace_ids),
            next(self._span_ids),
            parent.span_id if parent is not None else None,
            clock.now_ms if clock is not None else 0.0,
            _real_now_ms() if self._capture_real_time else 0.0,
            attributes=_clean_attributes(attributes) if attributes else {},
        )
        self._spans.append(span)
        stack.append(span)
        self._spans_cache = None
        if parent is not None:
            self._children.setdefault(parent.span_id, []).append(span)
        else:
            self._roots.append(span)
        return span

    def add_sink(self, sink) -> None:
        """Register a callable invoked with every span as it finishes.

        Sinks are how the flight recorder shadows the tracer without the
        tracer knowing about it; with no sinks registered the per-span
        cost is one truthiness check.
        """
        self._sinks.append(sink)

    def end_span(self, span: Span) -> None:
        """Close ``span`` (and anything left open beneath it)."""
        stack = self._stack
        while stack:
            top = stack.pop()
            clock = self._clock
            top.end_virtual_ms = clock.now_ms if clock is not None else 0.0
            top.end_real_ms = _real_now_ms() if self._capture_real_time else 0.0
            self._finished_cache = None
            if self._sinks:
                for sink in self._sinks:
                    sink(top)
            if top.parent_id is None and not self._retain:
                # Streaming mode: the trace just completed and every sink
                # has seen it — drop the whole tree (traces never
                # interleave on the single span stack, so everything
                # recorded since the root opened belongs to it).
                self._spans.clear()
                self._children.clear()
                self._roots.clear()
                self._spans_cache = None
                self._finished_cache = None
            if top is span:
                return
        raise ValueError(f"span {span.name!r} is not open on this tracer")

    def span(self, name: str, **attributes: Any) -> "_SpanScope":
        """Open a child span for the duration of the ``with`` block.

        An escaping exception marks the span's status as ``error`` (with
        the exception text) and is re-raised untouched.
        """
        return _SpanScope(self, name, attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Attach a virtual-time-stamped event to the current span.

        Outside any span the event is dropped — instrumentation sites
        fire unconditionally and rely on this to stay quiet when no
        invocation is in flight.
        """
        stack = self._stack
        if stack:
            clock = self._clock
            stack[-1].add_event(
                name, clock.now_ms if clock is not None else 0.0, **attributes
            )

    # -- reading -------------------------------------------------------------

    @property
    def retaining(self) -> bool:
        """Whether finished traces stay readable on the tracer (see
        ``retain=``); streaming tracers only feed their sinks."""
        return self._retain

    def set_retention(self, retain: bool) -> None:
        """Flip streaming mode (the telemetry pipeline does this when it
        attaches with ``streaming=True``).  Takes effect at the next
        trace completion; already-retained spans stay readable."""
        self._retain = retain

    @property
    def spans(self) -> List[Span]:
        """Every span started so far, in start order (memoized — the
        snapshot list is rebuilt only after new spans arrive)."""
        if self._spans_cache is None:
            self._spans_cache = list(self._spans)
        return self._spans_cache

    def finished_spans(self) -> List[Span]:
        """Finished spans in start order (memoized — rebuilt only after
        a span actually finishes, not on every access)."""
        if self._finished_cache is None:
            self._finished_cache = [span for span in self._spans if span.finished]
        return self._finished_cache

    def roots(self) -> List[Span]:
        """Trace roots in start order (maintained, not rescanned)."""
        return list(self._roots)

    def children_of(self, span: Span) -> List[Span]:
        """Direct children of ``span`` via the parent-id index (O(k),
        not O(n) — the scenario recorder walks whole span forests)."""
        return list(self._children.get(span.span_id, ()))

    def reset(self) -> None:
        """Drop recorded spans (id counters keep running — determinism
        depends on the construction point, not on resets)."""
        if self._stack:
            raise ValueError("cannot reset while spans are open")
        self._spans.clear()
        self._children.clear()
        self._roots.clear()
        self._spans_cache = None
        self._finished_cache = None
