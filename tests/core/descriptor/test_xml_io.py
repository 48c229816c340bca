"""XML round-trip tests, including a property-based generator."""

import pytest
from hypothesis import given, strategies as st

from repro.core.descriptor.model import (
    BindingPlane,
    CallbackSpec,
    ExceptionSpec,
    MethodSpec,
    ParameterSpec,
    PropertySpec,
    ProxyDescriptor,
    ReturnSpec,
    SemanticPlane,
    SyntacticPlane,
    TypeBinding,
)
from repro.core.descriptor.xml_io import descriptor_from_xml, descriptor_to_xml
from repro.core.proxies.factory import SHIPPED_DESCRIPTOR_FILES, descriptors_dir
from repro.errors import DescriptorError


@pytest.mark.parametrize("file_name", SHIPPED_DESCRIPTOR_FILES)
def test_shipped_descriptors_round_trip(file_name):
    """Every shipped descriptor survives XML serialize → parse intact."""
    original = descriptor_from_xml((descriptors_dir() / file_name).read_text())
    xml_text = descriptor_to_xml(original)
    parsed = descriptor_from_xml(xml_text)
    assert parsed.interface == original.interface
    assert parsed.semantic == original.semantic
    assert parsed.syntactic == original.syntactic
    assert parsed.bindings == original.bindings


def test_round_trip_is_fixed_point():
    location = descriptor_from_xml((descriptors_dir() / "location.xml").read_text())
    xml_once = descriptor_to_xml(location)
    xml_twice = descriptor_to_xml(descriptor_from_xml(xml_once))
    assert xml_once == xml_twice


class TestParsingErrors:
    def test_malformed_xml(self):
        with pytest.raises(DescriptorError, match="malformed"):
            descriptor_from_xml("<proxy")

    def test_wrong_root(self):
        with pytest.raises(DescriptorError, match="root"):
            descriptor_from_xml("<thing/>")

    def test_missing_interface(self):
        with pytest.raises(DescriptorError, match="interface"):
            descriptor_from_xml("<proxy><semantic/></proxy>")

    def test_missing_semantic(self):
        with pytest.raises(DescriptorError, match="semantic"):
            descriptor_from_xml('<proxy interface="X"/>')

    def test_parameter_missing_attributes(self):
        text = (
            '<proxy interface="X"><semantic>'
            '<method name="m"><parameter name="a"/></method>'
            "</semantic></proxy>"
        )
        with pytest.raises(DescriptorError):
            descriptor_from_xml(text)


# ---------------------------------------------------------------------------
# property-based round trip over generated descriptors
# ---------------------------------------------------------------------------

_name = st.from_regex(r"[a-z][a-zA-Z0-9]{0,10}", fullmatch=True)
_dimension = st.sampled_from(
    ["angle.latitude", "angle.longitude", "length.radius", "text.message", "flag.boolean"]
)


@st.composite
def _methods(draw):
    count = draw(st.integers(min_value=1, max_value=3))
    methods = []
    used = set()
    for _ in range(count):
        name = draw(_name.filter(lambda n: n not in used))
        used.add(name)
        param_count = draw(st.integers(min_value=0, max_value=4))
        param_names = draw(
            st.lists(_name, min_size=param_count, max_size=param_count, unique=True)
        )
        parameters = tuple(
            ParameterSpec(
                p,
                draw(_dimension),
                i + 1,
                description=draw(st.sampled_from(["", "a param"])),
                optional=draw(st.booleans()),
            )
            for i, p in enumerate(param_names)
        )
        returns = draw(
            st.one_of(st.none(), st.just(ReturnSpec("object.location", "r")))
        )
        methods.append(MethodSpec(name=name, parameters=parameters, returns=returns))
    return tuple(methods)


@given(_methods(), st.booleans())
def test_generated_descriptor_round_trips(methods, with_binding):
    semantic = SemanticPlane(interface="Gen", methods=methods)
    descriptor = ProxyDescriptor(semantic=semantic)
    descriptor.add_syntactic(
        SyntacticPlane(
            language="java",
            method_types={
                m.name: tuple(
                    TypeBinding(p.name, "java.lang.String") for p in m.parameters
                )
                for m in methods
            },
        )
    )
    if with_binding:
        descriptor.add_binding(
            BindingPlane(
                platform="android",
                language="java",
                implementation_class="com.x.Impl",
                properties=(
                    PropertySpec("p", type_name="int", default=3, allowed_values=(1, 2, 3)),
                ),
                exceptions=(ExceptionSpec("java.lang.SecurityException", "ProxyPermissionError", 1001),),
            )
        )
    parsed = descriptor_from_xml(descriptor_to_xml(descriptor))
    assert parsed.semantic == descriptor.semantic
    assert parsed.syntactic == descriptor.syntactic
    assert parsed.bindings == descriptor.bindings
