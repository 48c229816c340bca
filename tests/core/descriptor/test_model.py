"""Tests for the three-plane descriptor model."""

import pytest

from repro.core.descriptor.model import (
    BindingPlane,
    ExceptionSpec,
    MethodSpec,
    ParameterSpec,
    PropertySpec,
    ProxyDescriptor,
    SemanticPlane,
    SyntacticPlane,
    TypeBinding,
)
from repro.errors import DescriptorError


def _method(name="doIt", params=("a", "b")):
    return MethodSpec(
        name=name,
        parameters=tuple(
            ParameterSpec(p, "text.message", i + 1) for i, p in enumerate(params)
        ),
    )


class TestParameterSpec:
    def test_validate_against_dimension(self):
        spec = ParameterSpec("latitude", "angle.latitude", 1)
        spec.validate_value(45.0)
        with pytest.raises(ValueError):
            spec.validate_value(100.0)

    def test_optional_allows_none(self):
        spec = ParameterSpec("cb", "callback.proximity", 1, optional=True)
        spec.validate_value(None)

    def test_required_rejects_wrong_type(self):
        spec = ParameterSpec("text", "text.message", 1)
        with pytest.raises(ValueError):
            spec.validate_value(5)


class TestMethodSpec:
    def test_orders_must_be_contiguous(self):
        with pytest.raises(DescriptorError):
            MethodSpec(
                name="m",
                parameters=(
                    ParameterSpec("a", "text.message", 1),
                    ParameterSpec("b", "text.message", 3),
                ),
            )

    def test_duplicate_parameter_names_rejected(self):
        with pytest.raises(DescriptorError):
            MethodSpec(
                name="m",
                parameters=(
                    ParameterSpec("a", "text.message", 1),
                    ParameterSpec("a", "text.message", 2),
                ),
            )

    def test_ordered_parameters(self):
        method = MethodSpec(
            name="m",
            parameters=(
                ParameterSpec("second", "text.message", 2),
                ParameterSpec("first", "text.message", 1),
            ),
        )
        assert [p.name for p in method.ordered_parameters()] == ["first", "second"]

    def test_parameter_lookup(self):
        method = _method()
        assert method.parameter("a").order == 1
        with pytest.raises(DescriptorError):
            method.parameter("ghost")


class TestSemanticPlane:
    def test_duplicate_methods_rejected(self):
        with pytest.raises(DescriptorError):
            SemanticPlane(interface="X", methods=(_method("m"), _method("m")))

    def test_method_lookup(self):
        plane = SemanticPlane(interface="X", methods=(_method("m"),))
        assert plane.method("m").name == "m"
        with pytest.raises(DescriptorError):
            plane.method("ghost")

    def test_empty_interface_rejected(self):
        with pytest.raises(DescriptorError):
            SemanticPlane(interface="")


class TestSyntacticPlane:
    def test_unknown_language_rejected(self):
        with pytest.raises(DescriptorError):
            SyntacticPlane(language="cobol")

    def test_unknown_callback_style_rejected(self):
        with pytest.raises(DescriptorError):
            SyntacticPlane(language="java", callback_style="telepathy")

    def test_type_lookup(self):
        plane = SyntacticPlane(
            language="java",
            method_types={"m": (TypeBinding("a", "double"),)},
        )
        assert plane.type_of("m", "a") == "double"
        with pytest.raises(DescriptorError):
            plane.type_of("m", "ghost")


class TestPropertySpec:
    def test_allowed_values_enforced(self):
        spec = PropertySpec("power", allowed_values=("LOW", "HIGH"))
        spec.validate_value("LOW")
        with pytest.raises(ValueError):
            spec.validate_value("TURBO")

    def test_no_allowed_values_means_anything(self):
        PropertySpec("free").validate_value(object())

    @pytest.mark.parametrize(
        "type_name, good, bad",
        [
            ("int", [0, 500, -1], [True, 1.5, 500.0, "500", None]),
            ("float", [0, 0.5, -1.0], [False, "0.5", None]),
            ("double", [2, 2.5], [True, "2.5"]),
            ("boolean", [True, False], [0, 1, "true", None]),
            ("bool", [False], [1.0, "false"]),
        ],
    )
    def test_declared_types_enforced(self, type_name, good, bad):
        spec = PropertySpec("knob", type_name=type_name)
        for value in good:
            spec.validate_value(value)
        for value in bad:
            with pytest.raises(ValueError, match=f"expected {type_name}"):
                spec.validate_value(value)

    @pytest.mark.parametrize("type_name", ["string", "object"])
    def test_string_and_object_types_unchecked(self, type_name):
        for value in (42, True, None, object()):
            PropertySpec("free", type_name=type_name).validate_value(value)


class TestBindingPlane:
    def test_unknown_platform_rejected(self):
        with pytest.raises(DescriptorError):
            BindingPlane(platform="palm", language="java", implementation_class="X")

    def test_implementation_class_required(self):
        with pytest.raises(DescriptorError):
            BindingPlane(platform="android", language="java", implementation_class="")

    def test_duplicate_properties_rejected(self):
        with pytest.raises(DescriptorError):
            BindingPlane(
                platform="android",
                language="java",
                implementation_class="X",
                properties=(PropertySpec("a"), PropertySpec("a")),
            )

    def test_exception_lookup(self):
        plane = BindingPlane(
            platform="android",
            language="java",
            implementation_class="X",
            exceptions=(ExceptionSpec("java.lang.SecurityException"),),
        )
        assert plane.exception_for("java.lang.SecurityException") is not None
        assert plane.exception_for("java.lang.Other") is None


class TestProxyDescriptor:
    def _descriptor(self):
        descriptor = ProxyDescriptor(
            semantic=SemanticPlane(interface="X", methods=(_method("m"),))
        )
        descriptor.add_syntactic(
            SyntacticPlane(
                language="java",
                method_types={
                    "m": (TypeBinding("a", "java.lang.String"), TypeBinding("b", "java.lang.String"))
                },
            )
        )
        return descriptor

    def test_binding_requires_syntactic_plane(self):
        descriptor = self._descriptor()
        with pytest.raises(DescriptorError):
            descriptor.add_binding(
                BindingPlane(
                    platform="webview",
                    language="javascript",
                    implementation_class="X",
                )
            )

    def test_duplicate_binding_rejected(self):
        descriptor = self._descriptor()
        binding = BindingPlane(
            platform="android", language="java", implementation_class="X"
        )
        descriptor.add_binding(binding)
        with pytest.raises(DescriptorError):
            descriptor.add_binding(
                BindingPlane(
                    platform="android", language="java", implementation_class="Y"
                )
            )

    def test_binding_for_missing_platform(self):
        descriptor = self._descriptor()
        with pytest.raises(DescriptorError):
            descriptor.binding_for("s60")

    def test_validate_checks_type_coverage(self):
        descriptor = ProxyDescriptor(
            semantic=SemanticPlane(interface="X", methods=(_method("m"),))
        )
        descriptor.add_syntactic(
            SyntacticPlane(
                language="java",
                method_types={"m": (TypeBinding("a", "java.lang.String"),)},  # b missing
            )
        )
        with pytest.raises(DescriptorError):
            descriptor.validate()

    def test_platforms_and_languages(self):
        descriptor = self._descriptor()
        descriptor.add_binding(
            BindingPlane(platform="android", language="java", implementation_class="X")
        )
        assert descriptor.platforms() == ["android"]
        assert descriptor.languages() == ["java"]
