"""The M-Proxy base class.

A concrete proxy binding (e.g. the Android Location proxy) subclasses
:class:`MProxy` and gets, uniformly:

* ``set_property`` validated against its binding plane;
* one invocation path, :meth:`MProxy._call`, that every public
  operation takes: semantic-plane argument validation, a
  ``dispatch:<op>`` span when tracing, and the platform thunk run under
  the attached :class:`~repro.core.resilience.ResilienceRuntime` (or,
  on a bare proxy, with uniform exception mapping).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional

from repro.core.descriptor.model import BindingPlane, ProxyDescriptor
from repro.core.proxy.exceptions import map_platform_exception
from repro.core.proxy.properties import PropertySet
from repro.errors import ProxyError, ProxyInvalidArgumentError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.resilience.policy import ResilienceRuntime
    from repro.obs import Observability

#: The argument checks of a method the semantic plane does not declare.
_NO_CHECKS: Dict[str, Callable[[Any], None]] = {}


class MProxy:
    """Base of every concrete proxy binding.

    Parameters
    ----------
    descriptor:
        The proxy's three-plane descriptor.
    platform:
        Platform name this binding serves (must have a binding plane).
    """

    #: Interface this proxy class implements (set by subclasses; must match
    #: the descriptor's interface name).
    interface = "abstract"

    def __init__(self, descriptor: ProxyDescriptor, platform: str) -> None:
        if descriptor.interface != self.interface:
            raise ProxyError(
                f"descriptor is for {descriptor.interface!r}, proxy class "
                f"implements {self.interface!r}"
            )
        self.descriptor = descriptor
        self.binding: BindingPlane = descriptor.binding_for(platform)
        self.properties = PropertySet(self.binding.properties)
        self._resilience: Optional["ResilienceRuntime"] = None
        self._obs: Optional["Observability"] = None

    # -- the generic property mechanism (paper: setProperty) -----------------

    def set_property(self, key: str, value: Any) -> None:
        """Set a platform-specific attribute (validated against the
        binding plane's property list)."""
        self.properties.set(key, value)

    def get_property(self, key: str) -> Any:
        """Read a property's effective value (explicit or default)."""
        return self.properties.get(key)

    # -- shared invocation plumbing ---------------------------------------------

    def _validate_arguments(self, method_name: str, **arguments: Any) -> None:
        """Check named arguments against the semantic plane's dimensions,
        with the checks the plane compiled once per method
        (:attr:`~repro.core.descriptor.model.SemanticPlane.argument_checks`)."""
        semantic = self.descriptor.semantic
        checks = semantic.argument_checks.get(method_name, _NO_CHECKS)
        for name, value in arguments.items():
            check = checks.get(name)
            if check is None:
                # An unknown method or parameter: the plane's own lookups
                # raise the DescriptorError.
                semantic.method(method_name).parameter(name)
            try:
                check(value)
            except ValueError as exc:
                raise ProxyInvalidArgumentError(str(exc)) from exc

    # -- resilience ------------------------------------------------------------

    def attach_resilience(self, runtime: "ResilienceRuntime") -> None:
        """Attach the resilience runtime guarding this proxy's calls.

        Done by the factory so every binding on every platform gets the
        same guard without per-binding wiring.
        """
        self._resilience = runtime

    @property
    def resilience(self) -> Optional["ResilienceRuntime"]:
        """The attached runtime (``None`` for bare proxies)."""
        return self._resilience

    # -- observability ---------------------------------------------------------

    def attach_observability(self, observability: "Observability") -> None:
        """Attach the device's observability hub (done by the factory,
        like :meth:`attach_resilience`)."""
        self._obs = observability

    @property
    def observability(self) -> Optional["Observability"]:
        """The attached hub (``None`` for hand-built proxies)."""
        return self._obs

    def _trace_event(self, name: str, **attributes: Any) -> None:
        """Binding-plane hook: annotate the in-flight span with a
        platform-specific moment (receiver registered, handle created,
        …).  Free when tracing is off."""
        obs = self._obs
        if obs is not None and obs.tracer.enabled:
            obs.tracer.event(name, **attributes)

    # -- the invocation path ---------------------------------------------------

    def _call(
        self,
        operation: str,
        thunk: Callable[[], Any],
        *,
        fallback: Any = None,
        **arguments: Any,
    ) -> Any:
        """Run one public operation; every binding goes through here.

        1. ``arguments`` are validated against the semantic plane, so
           invalid arguments fail before any property precondition the
           thunk checks (a missing ``context``, say);
        2. with tracing on, the call is one ``dispatch:<operation>`` span
           carrying the ``interface`` and ``platform`` attributes;
        3. ``thunk`` runs under the attached resilience runtime (timeout
           accounting, bounded retry, circuit breaking and, when the
           policy enables it, ``fallback`` — the
           :data:`~repro.core.resilience.LAST_RESULT` sentinel or a
           callable).  A bare proxy runs it once (inside a
           ``binding:<operation>`` span when tracing) and maps escaping
           platform exceptions to the uniform hierarchy.

        With tracing off the path is a straight line: validate, then
        execute.  A runtime may run ``thunk`` more than once, so it must
        be safe to re-run after a failure.
        """
        if arguments:
            self._validate_arguments(operation, **arguments)
        obs = self._obs
        if obs is None or not obs.tracer.enabled:
            if self._resilience is not None:
                return self._resilience.execute(
                    self.binding, operation, thunk, fallback=fallback
                )
            try:
                return thunk()
            except ProxyError:
                raise  # already uniform
            except Exception as exc:
                raise map_platform_exception(self.binding, exc, operation) from exc
        platform = self.binding.platform
        with obs.tracer.span(
            f"dispatch:{operation}",
            interface=self.descriptor.interface,
            platform=platform,
        ):
            if self._resilience is not None:
                return self._resilience.execute(
                    self.binding, operation, thunk, fallback=fallback
                )
            try:
                with obs.tracer.span(f"binding:{operation}", platform=platform):
                    return thunk()
            except ProxyError:
                raise  # already uniform
            except Exception as exc:
                raise map_platform_exception(self.binding, exc, operation) from exc
