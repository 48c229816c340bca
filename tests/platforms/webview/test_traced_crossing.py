"""The traced crossing against its reference.

Before spans were slotted, a span was a plain dataclass with a fresh
``events`` list, ``Tracer.start_span`` indexed a child through
``setdefault``, ``PlatformBase.charge_native`` opened its
``substrate:<op>`` span with ``with tracer.span(...)``, set
``latency_ms`` inside it and looked its histogram up on every charge,
and a bridge crossing checked every value with ``isinstance``, charged
through ``WebViewPlatform.charge_bridge`` and consulted the fault
injector on every crossing of a device with any fault rule.  The
reference side of this module keeps those forms as they were:
:class:`ReferenceSpan`, :class:`ReferenceTracer`,
:class:`ReferenceWebViewPlatform` and :class:`ReferenceBridgeMethod`.

The lean side is the shipped path.  A hypothesis property drives both
sides with one script and compares, with ``==``, what anything outside
can observe: each step's result or raised exception, the trace export
bytes and span index, the metrics snapshot of every registry the hub
had, the battery's drain report, the native call counts, virtual time
and the fault schedule.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.device.device import MobileDevice
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import STATUS_OK, Span, SpanEvent, _SCALARS, _clean_attributes
from repro.obs.tracer import Tracer
from repro.platforms.webview.bridge import JsBridgeObject, _check_crossing
from repro.platforms.webview.exceptions import BridgeMarshalError, JsBridgeError
from repro.platforms.webview.platform import WebViewPlatform
from repro.util.latency import LatencyModel

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# The reference: the earlier span, tracer index, charge and crossing
# ---------------------------------------------------------------------------


@dataclass
class ReferenceSpan:
    """The span as a dataclass, as it was."""

    name: str
    trace_id: int
    span_id: int
    parent_id: Optional[int]
    start_virtual_ms: float
    end_virtual_ms: Optional[float] = None
    status: str = STATUS_OK
    error: Optional[str] = None
    attributes: Dict[str, Any] = field(default_factory=dict)
    events: List[SpanEvent] = field(default_factory=list)

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value if isinstance(value, _SCALARS) else repr(value)

    def add_event(self, name: str, t_virtual_ms: float, **attributes: Any) -> SpanEvent:
        event = SpanEvent(name, t_virtual_ms, _clean_attributes(attributes))
        self.events.append(event)
        return event

    def mark_error(self, error: BaseException) -> None:
        self.status = "error"
        self.error = f"{type(error).__name__}: {error}"

    @property
    def finished(self) -> bool:
        return self.end_virtual_ms is not None

    def to_dict(self) -> Dict[str, Any]:
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


# Named like the shipped class, so the two reprs compare whole.
ReferenceSpan.__qualname__ = "Span"


class ReferenceTracer(Tracer):
    """The tracer with the earlier ``start_span``: dataclass spans, and
    each child indexed through ``setdefault``."""

    def start_span(self, name: str, **attributes: Any) -> ReferenceSpan:
        stack = self._stack
        clock = self._clock
        parent = stack[-1] if stack else None
        span = ReferenceSpan(
            name,
            parent.trace_id if parent is not None else next(self._trace_ids),
            next(self._span_ids),
            parent.span_id if parent is not None else None,
            clock.now_ms if clock is not None else 0.0,
            attributes=_clean_attributes(attributes) if attributes else attributes,
        )
        stack.append(span)
        if self._retain:
            self._spans.append(span)
            self._spans_cache = None
            if parent is not None:
                self._children.setdefault(parent.span_id, []).append(span)
            else:
                self._roots.append(span)
        return span


class ReferenceWebViewPlatform(WebViewPlatform):
    """The WebView platform with the earlier charge and bridge charge."""

    def charge_native(self, operation: str) -> float:
        latency = self.native_latency.draw(operation)
        obs = self.device.obs
        if obs.tracer.enabled:
            with obs.tracer.span(
                f"substrate:{operation}", platform=self.platform_name
            ) as span:
                span.set_attribute("latency_ms", round(latency, 6))
                self.clock.advance(latency)
            obs.metrics.histogram(
                "substrate.latency_ms", operation=operation
            ).observe(latency)
        else:
            self.clock.advance(latency)
        self.device.battery.drain(operation, latency * self.DRAIN_MWH_PER_MS)
        self._charge_log[operation] = self._charge_log.get(operation, 0) + 1
        return latency

    def charge_bridge(self, method_name: str) -> float:
        return self.charge_native(f"webview.bridge.{method_name}")


class ReferenceBridgeMethod:
    """The earlier JS stub for one Java method."""

    def __init__(self, platform, java_object: Any, method_name: str) -> None:
        self._platform = platform
        self._java_object = java_object
        self._method_name = method_name
        self._span_name = f"bridge:{method_name}"

    def __call__(self, *args: Any) -> Any:
        tracer = self._platform.device.obs.tracer
        if not tracer.enabled:
            return self._cross(args)
        with tracer.span(self._span_name, direction="js->java"):
            return self._cross(args)

    def _cross(self, args: tuple) -> Any:
        for arg in args:
            _check_crossing(arg, "into", self._method_name)
        self._platform.charge_bridge(self._method_name)
        faults = getattr(self._platform.device, "faults", None)
        if faults is not None and faults.active:
            if faults.decide("webview.bridge") is not None:
                raise JsBridgeError(
                    "BridgeFault",
                    f"injected fault: bridge crossing {self._method_name!r} lost",
                )
        java_method = getattr(self._java_object, self._method_name)
        try:
            result = java_method(*args)
        except (BridgeMarshalError, JsBridgeError):
            raise
        except Exception as exc:
            raise JsBridgeError(type(exc).__name__, str(exc)) from exc
        _check_crossing(result, "out of", self._method_name)
        return result


class ReferenceBridgeObject(JsBridgeObject):
    """The earlier lookup: any callable attribute yields a stub."""

    def __getattr__(self, name: str) -> ReferenceBridgeMethod:
        if name.startswith("_"):
            raise AttributeError(name)
        if not callable(getattr(self._java_object, name, None)):
            raise BridgeMarshalError(
                f"{self._js_name}.{name} is not a bridged method "
                "(only public Java methods are exposed)"
            )
        stub = ReferenceBridgeMethod(self._platform, self._java_object, name)
        setattr(self, name, stub)
        return stub


# ---------------------------------------------------------------------------
# One Java object and one script, run on either side
# ---------------------------------------------------------------------------


class _Level(enum.IntEnum):
    HIGH = 2


class _Tag(str):
    pass


class _IllegalStateException(Exception):
    pass


#: What ``result(index)`` returns: primitives, subclasses, non-primitives.
RESULTS = (None, True, 3, 2.5, "text", _Level.HIGH, _Tag("north"), [1], {"k": 1}, (1, 2))
#: What ``fail(index, message)`` raises.
FAILURES = (
    RuntimeError,
    _IllegalStateException,
    KeyError,
    BridgeMarshalError,
    lambda message: JsBridgeError("Inner", message),
)
#: Operations charged directly or from inside a crossing.
OPERATIONS = ("android.getLocation", "webview.bridge.echo", "java.work", "brew.fetch")


class JavaSide:
    """A Java object whose methods cover every shape of crossing."""

    def __init__(self, platform) -> None:
        self._platform = platform

    def echo(self, *values):
        return values[0] if values else None

    def result(self, index):
        return RESULTS[index]

    def fail(self, index, message):
        raise FAILURES[index](message)

    def work(self, operation):
        self._platform.charge_native(operation)
        return operation


@dataclass
class Side:
    hub: Observability
    device: MobileDevice
    platform: WebViewPlatform
    js: JsBridgeObject
    registries: List[MetricsRegistry] = field(default_factory=list)
    outcomes: List[tuple] = field(default_factory=list)


def _side(reference: bool, traced: bool, plan, latency: dict) -> Side:
    hub = Observability(enabled=traced and not reference)
    if traced and reference:
        hub.tracer = ReferenceTracer()
    device = MobileDevice("+15550100", fault_plan=plan, observability=hub)
    platform_class = ReferenceWebViewPlatform if reference else WebViewPlatform
    platform = platform_class(device, latency=LatencyModel(**latency))
    object_class = ReferenceBridgeObject if reference else JsBridgeObject
    js = object_class(platform, JavaSide(platform), "Java")
    return Side(hub, device, platform, js)


def _run(side: Side, script) -> None:
    for step in script:
        kind = step[0]
        try:
            if kind == "call":
                value = getattr(side.js, step[1])(*step[2])
                side.outcomes.append(("ok", type(value).__name__, value))
            elif kind == "charge":
                side.outcomes.append(("ok", side.platform.charge_native(step[1])))
            elif kind == "swap":
                side.registries.append(side.hub.metrics)
                side.hub.metrics = MetricsRegistry()
            elif kind == "limit":
                side.hub.metrics.set_cardinality_limit(step[1])
            else:
                side.platform.run_for(step[1])
        except Exception as exc:
            side.outcomes.append(("raised", type(exc).__name__, str(exc)))


def _observed(side: Side) -> Dict[str, Any]:
    tracer = side.hub.tracer
    observed = {
        "outcomes": side.outcomes,
        "trace": side.hub.export_jsonl(),
        "metrics": [r.snapshot() for r in side.registries + [side.hub.metrics]],
        "battery": side.device.battery.drain_report(),
        "calls": side.platform.native_call_counts(),
        "now_ms": side.platform.clock.now_ms,
        "faults": side.device.faults.schedule(),
    }
    if tracer.enabled:
        observed["reprs"] = [repr(span) for span in tracer.spans]
        observed["roots"] = [span.span_id for span in tracer.roots()]
        observed["children"] = {
            span.span_id: [child.span_id for child in tracer.children_of(span)]
            for span in tracer.spans
        }
    return observed


_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.text(max_size=4),
    st.sampled_from([_Level.HIGH, _Tag("north")]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_calls = st.one_of(
    st.tuples(st.just("echo"), st.lists(_values, max_size=3)),
    st.tuples(st.just("result"), st.tuples(st.integers(0, len(RESULTS) - 1))),
    st.tuples(
        st.just("fail"), st.tuples(st.integers(0, len(FAILURES) - 1), st.text(max_size=4))
    ),
    st.tuples(st.just("work"), st.tuples(st.sampled_from(OPERATIONS))),
).map(lambda call: ("call",) + call)
_steps = st.one_of(
    _calls,
    st.tuples(st.just("charge"), st.sampled_from(OPERATIONS)),
    st.just(("swap",)),
    st.tuples(st.just("limit"), st.integers(1, 3)),
    st.tuples(st.just("idle"), st.floats(0.0, 200.0)),
)
_plans = st.one_of(
    st.none(),
    st.builds(
        lambda seed, rate, start_ms, cap: FaultPlan(
            seed=seed,
            rules=(FaultRule("webview.bridge", "bridge_fault", rate, start_ms=start_ms, max_faults=cap),),
        ),
        st.integers(0, 5),
        st.sampled_from([0.3, 0.7, 1.0]),
        st.sampled_from([0.0, 20.0]),
        st.one_of(st.none(), st.integers(1, 3)),
    ),
    # A plan with rules elsewhere only: the bridge has nothing to consult.
    st.integers(0, 5).map(
        lambda seed: FaultPlan(
            seed=seed, rules=(FaultRule("webview.notification", "drop", 1.0),)
        )
    ),
)
_latency = st.fixed_dictionaries(
    {
        "mean_ms": st.fixed_dictionaries(
            {"webview.bridge.echo": st.sampled_from([0.0, 2.5, 7])}
        ),
        "jitter_fraction": st.sampled_from([0.0, 0.3]),
        "seed": st.integers(0, 3),
        "default_ms": st.sampled_from([0.0, 1.0, 3.3]),
    }
)


class TestTracedCrossingAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(
        traced=st.booleans(),
        plan=_plans,
        latency=_latency,
        script=st.lists(_steps, max_size=20),
    )
    def test_both_sides_agree(self, traced, plan, latency, script):
        reference = _side(True, traced, plan, latency)
        lean = _side(False, traced, plan, latency)
        _run(reference, script)
        _run(lean, script)
        assert _observed(lean) == _observed(reference)

    def test_the_script_reaches_every_shape(self):
        """One fixed script hits subclass values, both marshal
        directions, a Java exception, a bridge fault, an overflowed
        series and a replaced registry, and both sides still agree."""
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule("webview.bridge", "bridge_fault", 1.0, start_ms=40.0),),
        )
        latency = {"mean_ms": {}, "jitter_fraction": 0.3, "seed": 1, "default_ms": 3.3}
        script = [
            ("call", "echo", (_Level.HIGH, _Tag("north"), True)),
            ("call", "echo", ([1],)),
            ("call", "result", (7,)),
            ("call", "result", (5,)),
            ("call", "fail", (1, "closed")),
            ("call", "work", ("java.work",)),
            ("limit", 1),
            ("charge", "brew.fetch"),
            ("charge", "brew.fetch"),
            ("swap",),
            ("charge", "brew.fetch"),
            ("idle", 50.0),
            ("call", "echo", ("lost",)),
        ]
        reference = _side(True, True, plan, latency)
        lean = _side(False, True, plan, latency)
        _run(reference, script)
        _run(lean, script)
        observed = _observed(lean)
        assert observed == _observed(reference)
        assert observed["outcomes"][:3] == [
            ("ok", "_Level", _Level.HIGH),
            ("raised", "BridgeMarshalError",
             "list cannot cross the JS/Java bridge (into 'echo'); only primitives may cross"),
            ("raised", "BridgeMarshalError",
             "list cannot cross the JS/Java bridge (out of 'result'); only primitives may cross"),
        ]
        assert observed["outcomes"][4] == ("raised", "JsBridgeError", "_IllegalStateException: closed")
        assert observed["outcomes"][-1] == (
            "raised", "JsBridgeError", "BridgeFault: injected fault: bridge crossing 'echo' lost"
        )
        first, second = observed["metrics"]
        assert first["obs.cardinality_overflow"] == [
            {"labels": {"metric": "substrate.latency_ms"}, "value": 2}
        ]
        assert [e["labels"] for e in second["substrate.latency_ms"]] == [
            {"operation": "brew.fetch"},
            {"operation": "webview.bridge.echo"},
        ]


# ---------------------------------------------------------------------------
# The span itself
# ---------------------------------------------------------------------------

_events = st.lists(
    st.tuples(st.text(max_size=3), st.floats(0.0, 1e3), st.dictionaries(
        st.text(max_size=2), st.integers(), max_size=2
    )),
    max_size=2,
)
_span_fields = st.fixed_dictionaries(
    {
        "name": st.text(max_size=6),
        "trace_id": st.integers(1, 5),
        "span_id": st.integers(1, 5),
        "parent_id": st.one_of(st.none(), st.integers(1, 5)),
        "start_virtual_ms": st.floats(0.0, 1e3),
    },
    optional={
        "end_virtual_ms": st.one_of(st.none(), st.floats(0.0, 1e3)),
        "status": st.sampled_from(["ok", "error"]),
        "error": st.one_of(st.none(), st.text(max_size=4)),
        "attributes": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    },
)


def _pair(fields, events, empty_list):
    """The same span built as a slotted span and as the dataclass."""
    built = []
    for span_class in (Span, ReferenceSpan):
        kwargs = dict(fields)
        if "attributes" in kwargs:
            kwargs["attributes"] = dict(kwargs["attributes"])
        if empty_list and span_class is Span:
            kwargs["events"] = []
        span = span_class(**kwargs)
        for name, at, attributes in events:
            span.add_event(name, at, **attributes)
        built.append(span)
    return built


class TestSpanAgainstDataclass:
    @settings(max_examples=200, deadline=None)
    @given(
        fields=_span_fields,
        other=_span_fields,
        events=_events,
        other_events=_events,
        empty_list=st.booleans(),
    )
    def test_fields_eq_repr_and_dict_match(
        self, fields, other, events, other_events, empty_list
    ):
        span, reference = _pair(fields, events, empty_list)
        twin, reference_twin = _pair(other, other_events, not empty_list)
        assert repr(span) == repr(reference)
        assert span.to_dict() == reference.to_dict()
        assert (span == twin) == (reference == reference_twin)
        assert span == _pair(fields, events, not empty_list)[0]
        assert span != reference  # different classes never compare equal

    def test_no_events_equals_an_empty_list(self):
        bare = Span("op", 1, 1, None, 0.0)
        listed = Span("op", 1, 1, None, 0.0, events=[])
        assert bare.events == ()
        assert bare == listed
        assert repr(bare) == repr(listed)
        assert repr(bare) == (
            "Span(name='op', trace_id=1, span_id=1, parent_id=None, "
            "start_virtual_ms=0.0, end_virtual_ms=None, status='ok', error=None, "
            "attributes={}, events=[])"
        )

    def test_the_first_event_makes_a_list_of_its_own(self):
        first = Span("a", 1, 1, None, 0.0)
        second = Span("b", 1, 2, None, 0.0)
        event = first.add_event("retry", 1.0, attempt=2)
        assert first.events == [event]
        assert second.events == ()
        first.add_event("retry", 2.0)
        assert [e.t_virtual_ms for e in first.events] == [1.0, 2.0]

    def test_a_span_is_unhashable_and_has_no_dict(self):
        span = Span("op", 1, 1, None, 0.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(span)
        with pytest.raises(AttributeError):
            span.extra = 1
