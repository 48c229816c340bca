"""The dimension system of the semantic plane.

The paper's semantic plane fixes each parameter's *dimension* — its
meaning and unit, independent of any language type.  A
:class:`Dimension` validates values (so ``latitude=417`` fails at the
proxy boundary, uniformly on every platform) and carries the default
type names the syntactic plane offers per language.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import DescriptorError


def _accept_any(value: Any) -> None:
    """The compiled check of an ``object`` dimension: every value passes."""


@dataclass(frozen=True)
class Dimension:
    """A semantic value space: name, unit, bounds, and default lang types."""

    name: str
    unit: str = ""
    description: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    java_type: str = "java.lang.Object"
    javascript_type: str = "object"
    python_type: type = object

    def validate(self, value: Any) -> None:
        """Raise ``ValueError`` when ``value`` is outside the dimension."""
        if self.python_type in (int, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"{self.name}: expected a number, got {type(value).__name__}"
                )
            if self.minimum is not None and value < self.minimum:
                raise ValueError(
                    f"{self.name}: {value} below minimum {self.minimum}"
                )
            if self.maximum is not None and value > self.maximum:
                raise ValueError(
                    f"{self.name}: {value} above maximum {self.maximum}"
                )
        elif self.python_type is str:
            if not isinstance(value, str):
                raise ValueError(
                    f"{self.name}: expected a string, got {type(value).__name__}"
                )
        elif self.python_type is bool:
            if not isinstance(value, bool):
                raise ValueError(
                    f"{self.name}: expected a bool, got {type(value).__name__}"
                )
        # python_type is object: any value passes (callbacks, opaque handles)

    def compile_check(
        self, reference: Callable[[Any], None]
    ) -> Callable[[Any], None]:
        """A check equivalent to ``reference``, with the common case inlined.

        ``reference`` must raise exactly when :meth:`validate` would (it
        is :meth:`validate` or a wrapper that also admits ``None``).  The
        returned check accepts an exact ``int`` or ``float`` within the
        bounds (an exact ``str``, an exact ``bool``) on the spot and hands
        every other value — bools posing as numbers, subclasses,
        out-of-range values, ``None`` — to ``reference``, so every verdict
        and every message still comes from :meth:`validate`.
        """
        python_type = self.python_type
        if python_type is object:
            return _accept_any
        if python_type is str or python_type is bool:

            def check_exact(value: Any) -> None:
                if type(value) is not python_type:
                    reference(value)

            return check_exact
        # A missing bound is an infinite one: no exact number lies past it.
        minimum = -math.inf if self.minimum is None else self.minimum
        maximum = math.inf if self.maximum is None else self.maximum

        def check_number(value: Any) -> None:
            kind = type(value)
            if (
                (kind is not float and kind is not int)
                or value < minimum
                or value > maximum
            ):
                reference(value)

        return check_number

    def type_for_language(self, language: str) -> str:
        """The default concrete type for ``language`` ('java'/'javascript')."""
        if language == "java":
            return self.java_type
        if language == "javascript":
            return self.javascript_type
        raise DescriptorError(f"unknown language {language!r}")


class DimensionRegistry:
    """Named dimensions available to descriptors."""

    def __init__(self) -> None:
        self._dimensions: Dict[str, Dimension] = {}

    def register(self, dimension: Dimension) -> None:
        if dimension.name in self._dimensions:
            raise DescriptorError(f"dimension {dimension.name!r} already registered")
        self._dimensions[dimension.name] = dimension

    def get(self, name: str) -> Dimension:
        try:
            return self._dimensions[name]
        except KeyError:
            raise DescriptorError(f"unknown dimension {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._dimensions

    def names(self) -> list:
        return sorted(self._dimensions)


def _build_standard() -> DimensionRegistry:
    registry = DimensionRegistry()
    for dimension in (
        Dimension(
            "angle.latitude", "degrees", "WGS-84 latitude",
            minimum=-90.0, maximum=90.0,
            java_type="double", javascript_type="number", python_type=float,
        ),
        Dimension(
            "angle.longitude", "degrees", "WGS-84 longitude",
            minimum=-180.0, maximum=180.0,
            java_type="double", javascript_type="number", python_type=float,
        ),
        Dimension(
            "length.altitude", "metres", "height above the ellipsoid",
            minimum=-500.0, maximum=40_000.0,
            java_type="double", javascript_type="number", python_type=float,
        ),
        Dimension(
            "length.radius", "metres", "proximity region radius",
            minimum=1e-9,
            java_type="float", javascript_type="number", python_type=float,
        ),
        Dimension(
            "time.duration", "seconds", "expiration or timeout; -1 = unbounded",
            minimum=-1.0,
            java_type="long", javascript_type="number", python_type=float,
        ),
        Dimension(
            "identity.phone_number", "", "E.164-ish dialable number",
            java_type="java.lang.String", javascript_type="string", python_type=str,
        ),
        Dimension(
            "text.message", "", "short-message payload",
            java_type="java.lang.String", javascript_type="string", python_type=str,
        ),
        Dimension(
            "web.url", "", "absolute http URL",
            java_type="java.lang.String", javascript_type="string", python_type=str,
        ),
        Dimension(
            "web.body", "", "request entity body",
            java_type="java.lang.String", javascript_type="string", python_type=str,
        ),
        Dimension(
            "callback.proximity", "", "uniform proximity listener",
            java_type="com.ibm.telecom.proxy.ProximityListener",
            javascript_type="function", python_type=object,
        ),
        Dimension(
            "callback.sms_status", "", "uniform SMS status listener",
            java_type="com.ibm.telecom.proxy.SmsStatusListener",
            javascript_type="function", python_type=object,
        ),
        Dimension(
            "callback.call_state", "", "uniform call state listener",
            java_type="com.ibm.telecom.proxy.CallStateListener",
            javascript_type="function", python_type=object,
        ),
        Dimension(
            "callback.http_response", "", "uniform HTTP response listener",
            java_type="com.ibm.telecom.proxy.HttpResponseListener",
            javascript_type="function", python_type=object,
        ),
        Dimension(
            "object.location", "", "uniform location value",
            java_type="com.ibm.telecom.proxy.Location",
            javascript_type="object", python_type=object,
        ),
        Dimension(
            "object.http_result", "", "uniform HTTP result value",
            java_type="com.ibm.telecom.proxy.HttpResult",
            javascript_type="object", python_type=object,
        ),
        Dimension(
            "object.call_handle", "", "uniform call handle",
            java_type="com.ibm.telecom.proxy.CallHandle",
            javascript_type="object", python_type=object,
        ),
        Dimension(
            "object.contact", "", "uniform contact value",
            java_type="com.ibm.telecom.proxy.Contact",
            javascript_type="object", python_type=object,
        ),
        Dimension(
            "object.event", "", "uniform calendar-event value",
            java_type="com.ibm.telecom.proxy.CalendarEvent",
            javascript_type="object", python_type=object,
        ),
        Dimension(
            "time.instant", "milliseconds", "absolute instant on the device clock",
            minimum=0.0,
            java_type="long", javascript_type="number", python_type=float,
        ),
        Dimension(
            "flag.boolean", "", "true/false switch",
            java_type="boolean", javascript_type="boolean", python_type=bool,
        ),
    ):
        registry.register(dimension)
    return registry


#: The dimensions every shipped descriptor draws from.
STANDARD_DIMENSIONS = _build_standard()
