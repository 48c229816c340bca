"""Tests for the five descriptor schemas."""

import pytest

from repro.core.descriptor.schema import validate_descriptor_xml
from repro.core.proxies.factory import descriptors_dir
from repro.errors import DescriptorError


def _valid_xml():
    return (descriptors_dir() / "location.xml").read_text()


class TestValidDocuments:
    def test_shipped_descriptor_is_schema_clean(self):
        assert validate_descriptor_xml(_valid_xml()) == []


class TestProxyLevel:
    def test_missing_interface(self):
        violations = validate_descriptor_xml("<proxy><semantic><method name='m'/></semantic></proxy>")
        assert any("interface" in v.message for v in violations)

    def test_missing_semantic(self):
        violations = validate_descriptor_xml('<proxy interface="X"/>')
        assert any("semantic" in v.message for v in violations)

    def test_unknown_language_plane(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<syntactic language="cobol"/></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("cobol" in v.message for v in violations)

    def test_not_well_formed_raises(self):
        with pytest.raises(DescriptorError):
            validate_descriptor_xml("<proxy")


class TestSemanticSchema:
    def test_requires_a_method(self):
        violations = validate_descriptor_xml(
            '<proxy interface="X"><semantic/></proxy>'
        )
        assert any("at least one" in v.message for v in violations)

    def test_duplicate_method_names(self):
        text = (
            '<proxy interface="X"><semantic>'
            '<method name="m"/><method name="m"/>'
            "</semantic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("duplicate method" in v.message for v in violations)

    def test_unknown_dimension(self):
        text = (
            '<proxy interface="X"><semantic><method name="m">'
            '<parameter name="a" dimension="made.up" order="1"/>'
            "</method></semantic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("unknown dimension" in v.message for v in violations)

    def test_non_contiguous_orders(self):
        text = (
            '<proxy interface="X"><semantic><method name="m">'
            '<parameter name="a" dimension="text.message" order="1"/>'
            '<parameter name="b" dimension="text.message" order="3"/>'
            "</method></semantic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("orders must be 1..N" in v.message for v in violations)

    def test_callback_attributes_required(self):
        text = (
            '<proxy interface="X"><semantic><method name="m">'
            "<callback/></method></semantic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        messages = [v.message for v in violations]
        assert any("parameter attribute" in m for m in messages)
        assert any("event attribute" in m for m in messages)


class TestSyntacticSchemas:
    def test_java_rejects_function_callbacks(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<syntactic language="java" callbackStyle="function"/></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("callbackStyle" in v.message for v in violations)

    def test_javascript_rejects_object_callbacks(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<syntactic language="javascript" callbackStyle="object"/></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("callbackStyle" in v.message for v in violations)

    def test_java_unqualified_nonprimitive_type(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<syntactic language="java" callbackStyle="object">'
            '<method name="m"><type parameter="a">Widget</type></method>'
            "</syntactic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("neither a java primitive" in v.message for v in violations)

    def test_java_primitives_accepted(self):
        text = (
            '<proxy interface="X"><semantic><method name="m">'
            '<parameter name="a" dimension="text.message" order="1"/></method></semantic>'
            '<syntactic language="java" callbackStyle="object">'
            '<method name="m"><type parameter="a">double</type></method>'
            "</syntactic></proxy>"
        )
        assert validate_descriptor_xml(text) == []

    def test_empty_type_name(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<syntactic language="javascript" callbackStyle="function">'
            '<method name="m"><type parameter="a"></type></method>'
            "</syntactic></proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("empty type" in v.message for v in violations)


class TestBindingSchemas:
    def test_java_binding_platform_restricted(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="webview" language="java"><class>com.x.Y</class></binding>'
            "</proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("not allowed" in v.message for v in violations)

    def test_javascript_binding_platform_restricted(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="android" language="javascript"><class>p.j</class></binding>'
            "</proxy>"
        )
        violations = validate_descriptor_xml(text)
        assert any("not allowed" in v.message for v in violations)

    def test_missing_class_element(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="android" language="java"/></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("class" in v.message for v in violations)

    def test_bad_exception_code(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="android" language="java"><class>c.X</class>'
            '<exception class="java.lang.E" code="lots"/></binding></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("integer" in v.message for v in violations)

    def test_duplicate_property_names(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="android" language="java"><class>c.X</class>'
            '<property name="p"/><property name="p"/></binding></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("duplicate property" in v.message for v in violations)

    def test_unknown_property_type(self):
        text = (
            '<proxy interface="X"><semantic><method name="m"/></semantic>'
            '<binding platform="android" language="java"><class>c.X</class>'
            '<property name="p" type="quaternion"/></binding></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert any("unknown property type" in v.message for v in violations)

    def test_multiple_violations_all_reported(self):
        text = (
            '<proxy interface="X"><semantic/>'
            '<binding platform="palm" language="java"/></proxy>'
        )
        violations = validate_descriptor_xml(text)
        assert len(violations) >= 2
