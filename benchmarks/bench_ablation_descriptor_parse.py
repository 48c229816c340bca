"""Ablation: descriptor XML parse/validate cost.

M-Proxy descriptors are design-time artifacts parsed when the plugin or
the registry loads; this bench quantifies that (amortized) cost for the
largest shipped descriptor and for schema validation separately.
"""

import pytest

from repro.core.descriptor.registry import ProxyRegistry
from repro.core.descriptor.schema import validate_descriptor_xml
from repro.core.descriptor.xml_io import descriptor_from_xml, descriptor_to_xml
from repro.core.proxies.factory import SHIPPED_DESCRIPTOR_FILES, descriptors_dir


@pytest.fixture(scope="module")
def location_xml():
    return (descriptors_dir() / "location.xml").read_text()


def test_serialize(benchmark, location_xml):
    descriptor = descriptor_from_xml(location_xml)
    benchmark(lambda: descriptor_to_xml(descriptor))


def test_parse(benchmark, location_xml):
    benchmark(lambda: descriptor_from_xml(location_xml))


def test_schema_validate(benchmark, location_xml):
    result = benchmark(lambda: validate_descriptor_xml(location_xml))
    assert result == []


def test_full_registry_load(benchmark):
    """Parse + validate + register all six shipped proxies from XML."""
    documents = [
        (descriptors_dir() / file_name).read_text()
        for file_name in SHIPPED_DESCRIPTOR_FILES
    ]

    def load():
        registry = ProxyRegistry()
        for document in documents:
            registry.register_xml(document)
        return registry

    registry = benchmark(load)
    assert len(registry) == 6
