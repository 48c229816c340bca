"""Dataclasses for the three descriptor planes."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.descriptor.typesys import DimensionRegistry, STANDARD_DIMENSIONS
from repro.errors import DescriptorError

#: Languages the syntactic plane may bind.  C is supported at the
#: syntactic-plane and codegen level (the paper: "in JavaScript (or C)
#: we can specify a function (or a function pointer)"); no shipped
#: platform binds it.
LANGUAGES = ("java", "javascript", "c")

#: Platform vocabulary: name → the language its bindings are written in.
#: Extensible at run time (paper Section 3.3: a new platform joins by
#: publishing binding artifacts; registering its name here is the first).
_PLATFORM_LANGUAGES: Dict[str, str] = {
    "android": "java",
    "s60": "java",
    "webview": "javascript",
}

#: The three platforms of the paper's prototype (import-stable alias).
PLATFORMS = ("android", "s60", "webview")


def register_platform(name: str, language: str) -> None:
    """Add a platform name to the vocabulary.

    ``language`` must be one of :data:`LANGUAGES` — new platforms reuse an
    existing syntactic plane, which is exactly what makes binding-only
    extension possible.  Re-registering with the same language is a no-op;
    changing an existing platform's language is an error.
    """
    if language not in LANGUAGES:
        raise DescriptorError(
            f"platform language must be one of {LANGUAGES}, got {language!r}"
        )
    existing = _PLATFORM_LANGUAGES.get(name)
    if existing is not None and existing != language:
        raise DescriptorError(
            f"platform {name!r} is already registered with language {existing!r}"
        )
    _PLATFORM_LANGUAGES[name] = language


def known_platforms() -> Tuple[str, ...]:
    """Every registered platform name, sorted."""
    return tuple(sorted(_PLATFORM_LANGUAGES))


def platform_language(name: str) -> str:
    """The binding language registered for ``name``."""
    try:
        return _PLATFORM_LANGUAGES[name]
    except KeyError:
        raise DescriptorError(f"unknown platform {name!r}") from None


@dataclass(frozen=True)
class ParameterSpec:
    """One semantic-plane parameter: name, order, dimension, meaning."""

    name: str
    dimension: str
    order: int
    description: str = ""
    optional: bool = False

    def validate_value(
        self, value: Any, dimensions: DimensionRegistry = STANDARD_DIMENSIONS
    ) -> None:
        """Check ``value`` against the parameter's dimension."""
        if value is None and self.optional:
            return
        dimensions.get(self.dimension).validate(value)

    def compiled_check(self) -> Callable[[Any], None]:
        """:meth:`validate_value` against the standard dimensions, compiled
        once (see :meth:`~repro.core.descriptor.typesys.Dimension.compile_check`):
        raises the same ``ValueError`` for the same values.  A dimension
        the registry does not know keeps :meth:`validate_value` itself,
        which raises :class:`DescriptorError` when called."""
        if self.dimension not in STANDARD_DIMENSIONS:
            return self.validate_value
        return STANDARD_DIMENSIONS.get(self.dimension).compile_check(
            self.validate_value
        )


@dataclass(frozen=True)
class ReturnSpec:
    """Semantic-plane return value."""

    dimension: str
    description: str = ""


@dataclass(frozen=True)
class CallbackSpec:
    """Semantic-plane callback: the uniform event and its parameters.

    ``event_name`` is the canonical handler method (``proximityEvent`` in
    the paper's listing) and ``event_parameters`` the uniform payload.
    """

    parameter_name: str
    event_name: str
    event_parameters: Tuple[ParameterSpec, ...] = ()


@dataclass(frozen=True)
class MethodSpec:
    """One canonical interface method in the semantic plane."""

    name: str
    description: str = ""
    parameters: Tuple[ParameterSpec, ...] = ()
    returns: Optional[ReturnSpec] = None
    callback: Optional[CallbackSpec] = None

    def __post_init__(self) -> None:
        orders = [p.order for p in self.parameters]
        if sorted(orders) != list(range(1, len(orders) + 1)):
            raise DescriptorError(
                f"method {self.name!r}: parameter orders must be 1..N, got {orders}"
            )
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise DescriptorError(f"method {self.name!r}: duplicate parameter names")

    def ordered_parameters(self) -> List[ParameterSpec]:
        return sorted(self.parameters, key=lambda p: p.order)

    def parameter(self, name: str) -> ParameterSpec:
        for spec in self.parameters:
            if spec.name == name:
                return spec
        raise DescriptorError(f"method {self.name!r} has no parameter {name!r}")


@dataclass(frozen=True)
class SemanticPlane:
    """Plane 1: canonical structure of one proxy interface."""

    interface: str
    description: str = ""
    methods: Tuple[MethodSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.interface:
            raise DescriptorError("semantic plane needs an interface name")
        names = [m.name for m in self.methods]
        if len(set(names)) != len(names):
            raise DescriptorError(f"interface {self.interface!r}: duplicate methods")

    def method(self, name: str) -> MethodSpec:
        for spec in self.methods:
            if spec.name == name:
                return spec
        raise DescriptorError(f"interface {self.interface!r} has no method {name!r}")

    @functools.cached_property
    def argument_checks(self) -> Dict[str, Dict[str, Callable[[Any], None]]]:
        """Method name → parameter name → its compiled check
        (:meth:`ParameterSpec.compiled_check`).

        Built on first use and kept on the plane, so every proxy built
        from one descriptor shares one table."""
        return {
            method.name: {
                parameter.name: parameter.compiled_check()
                for parameter in method.parameters
            }
            for method in self.methods
        }

    def method_names(self) -> List[str]:
        return [m.name for m in self.methods]


@dataclass(frozen=True)
class TypeBinding:
    """Syntactic plane: a concrete type for one parameter in one language."""

    parameter_name: str
    type_name: str


@dataclass(frozen=True)
class SyntacticPlane:
    """Plane 2: one language's concrete types for the interface.

    ``callback_style`` records the idiom: ``"object"`` (a listener object
    with a named method — Java) or ``"function"`` (a bare function —
    JavaScript/C).
    """

    language: str
    callback_style: str = "object"
    method_types: Dict[str, Tuple[TypeBinding, ...]] = field(default_factory=dict)
    return_types: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.language not in LANGUAGES:
            raise DescriptorError(f"unknown language {self.language!r}")
        if self.callback_style not in ("object", "function"):
            raise DescriptorError(f"unknown callback style {self.callback_style!r}")

    def type_of(self, method: str, parameter: str) -> str:
        for binding in self.method_types.get(method, ()):
            if binding.parameter_name == parameter:
                return binding.type_name
        raise DescriptorError(
            f"no {self.language} type bound for {method}.{parameter}"
        )


#: Declared property type → the Python types its values may have.
#: ``string`` and ``object`` are not checked: a hand-built spec defaults
#: to ``string`` and may hold any value.
_PROPERTY_TYPES = {
    "int": (int,),
    "float": (int, float),
    "double": (int, float),
    "bool": (bool,),
    "boolean": (bool,),
}


@dataclass(frozen=True)
class PropertySpec:
    """Binding plane: one platform-specific attribute.

    This is the paper's key refinement over plain wrappers: attributes
    that are *inherently* platform-specific (Android's application
    context, S60's preferredResponseTime) stay out of the common API and
    flow in through ``set_property``, validated against this spec.
    """

    name: str
    description: str = ""
    type_name: str = "string"
    default: Optional[Any] = None
    allowed_values: Tuple[Any, ...] = ()
    required: bool = False

    def validate_value(self, value: Any) -> None:
        """Raise ``ValueError`` unless ``value`` has the declared numeric or
        boolean type (``bool`` is not an ``int``) and is an allowed value."""
        accepted = _PROPERTY_TYPES.get(self.type_name)
        if accepted is not None and (
            not isinstance(value, accepted)
            or (isinstance(value, bool) and bool not in accepted)
        ):
            raise ValueError(
                f"property {self.name!r}: expected {self.type_name}, got "
                f"{type(value).__name__}"
            )
        if self.allowed_values and value not in self.allowed_values:
            raise ValueError(
                f"property {self.name!r}: {value!r} not in allowed values "
                f"{list(self.allowed_values)}"
            )


@dataclass(frozen=True)
class ExceptionSpec:
    """Binding plane: one platform exception and its uniform mapping."""

    platform_class: str
    maps_to: str = "ProxyPlatformError"
    error_code: int = 1005
    description: str = ""


@dataclass(frozen=True)
class BindingPlane:
    """Plane 3: one platform's implementation binding."""

    platform: str
    language: str
    implementation_class: str
    properties: Tuple[PropertySpec, ...] = ()
    exceptions: Tuple[ExceptionSpec, ...] = ()
    notes: str = ""

    def __post_init__(self) -> None:
        if self.platform not in _PLATFORM_LANGUAGES:
            raise DescriptorError(f"unknown platform {self.platform!r}")
        if self.language not in LANGUAGES:
            raise DescriptorError(f"unknown language {self.language!r}")
        if self.language != _PLATFORM_LANGUAGES[self.platform]:
            raise DescriptorError(
                f"platform {self.platform!r} bindings are written in "
                f"{_PLATFORM_LANGUAGES[self.platform]!r}, not {self.language!r}"
            )
        if not self.implementation_class:
            raise DescriptorError("binding plane needs an implementation class")
        names = [p.name for p in self.properties]
        if len(set(names)) != len(names):
            raise DescriptorError(
                f"binding {self.platform!r}: duplicate property names"
            )

    def property_spec(self, name: str) -> PropertySpec:
        for spec in self.properties:
            if spec.name == name:
                return spec
        raise DescriptorError(
            f"binding {self.platform!r} has no property {name!r}"
        )

    def exception_for(self, platform_class: str) -> Optional[ExceptionSpec]:
        for spec in self.exceptions:
            if spec.platform_class == platform_class:
                return spec
        return None


@dataclass
class ProxyDescriptor:
    """A complete M-Proxy: one semantic plane + syntactic + binding planes."""

    semantic: SemanticPlane
    syntactic: Dict[str, SyntacticPlane] = field(default_factory=dict)
    bindings: Dict[str, BindingPlane] = field(default_factory=dict)

    @property
    def interface(self) -> str:
        return self.semantic.interface

    def add_syntactic(self, plane: SyntacticPlane) -> None:
        if plane.language in self.syntactic:
            raise DescriptorError(
                f"{self.interface}: {plane.language} syntactic plane already present"
            )
        self.syntactic[plane.language] = plane

    def add_binding(self, plane: BindingPlane) -> None:
        """Extension point: new platforms publish only a binding plane."""
        if plane.platform in self.bindings:
            raise DescriptorError(
                f"{self.interface}: {plane.platform} binding already present"
            )
        if plane.language not in self.syntactic:
            raise DescriptorError(
                f"{self.interface}: binding for {plane.platform!r} targets "
                f"language {plane.language!r} with no syntactic plane"
            )
        self.bindings[plane.platform] = plane

    def binding_for(self, platform: str) -> BindingPlane:
        try:
            return self.bindings[platform]
        except KeyError:
            raise DescriptorError(
                f"interface {self.interface!r} has no binding for {platform!r}"
            ) from None

    def platforms(self) -> List[str]:
        return sorted(self.bindings)

    def languages(self) -> List[str]:
        return sorted(self.syntactic)

    def validate(self) -> None:
        """Cross-plane consistency: every binding's language has a
        syntactic plane; every syntactic plane types every parameter of
        every method."""
        for binding in self.bindings.values():
            if binding.language not in self.syntactic:
                raise DescriptorError(
                    f"{self.interface}: binding {binding.platform} needs a "
                    f"{binding.language} syntactic plane"
                )
        for plane in self.syntactic.values():
            for method in self.semantic.methods:
                for parameter in method.parameters:
                    plane.type_of(method.name, parameter.name)
