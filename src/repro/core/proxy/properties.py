"""The generic property mechanism (``setProperty`` in the paper).

Platform-mandated attributes — Android's application context, S60's
criteria knobs — do not belong in the common API, but each binding still
needs them.  A :class:`PropertySet` is constructed from the binding
plane's :class:`~repro.core.descriptor.model.PropertySpec` list and
validates keys, declared types, allowed values and required-before-use
rules uniformly across every platform.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

from repro.core.descriptor.model import PropertySpec
from repro.errors import ProxyPropertyError


class PropertySet:
    """Validated key/value store behind ``MProxy.set_property``."""

    def __init__(self, specs: Iterable[PropertySpec]) -> None:
        self._specs: Dict[str, PropertySpec] = {spec.name: spec for spec in specs}
        self._values: Dict[str, Any] = {}

    def spec(self, key: str) -> PropertySpec:
        try:
            return self._specs[key]
        except KeyError:
            raise ProxyPropertyError(
                f"unknown property {key!r} (known: {sorted(self._specs)})"
            ) from None

    def set(self, key: str, value: Any) -> None:
        """Set a property, enforcing the binding plane's declared type and
        allowed values."""
        spec = self.spec(key)
        try:
            spec.validate_value(value)
        except ValueError as exc:
            raise ProxyPropertyError(str(exc)) from exc
        self._values[key] = value

    def get(self, key: str) -> Any:
        """Current value, falling back to the spec default."""
        spec = self.spec(key)
        if key in self._values:
            return self._values[key]
        return spec.default

    def is_set(self, key: str) -> bool:
        """Whether the key was explicitly set (defaults don't count)."""
        return key in self._values

    def require(self, key: str, for_what: str) -> Any:
        """Value of a required property; raises if never set and no default.

        Bindings call this at invocation time so the error message names
        the operation that needed the property.
        """
        spec = self.spec(key)
        if key in self._values:
            return self._values[key]
        if spec.default is not None:
            return spec.default
        raise ProxyPropertyError(
            f"property {key!r} must be set before {for_what} "
            f"(use set_property({key!r}, ...))"
        )

    def known_keys(self) -> List[str]:
        return sorted(self._specs)

    def as_dict(self) -> Dict[str, Any]:
        """Effective values: defaults overlaid with explicit settings."""
        effective = {
            name: spec.default
            for name, spec in self._specs.items()
            if spec.default is not None
        }
        effective.update(self._values)
        return effective
