"""The packaged descriptor XML documents are the only copy of each descriptor.

``standard_registry()`` loads them; nothing regenerates them.  Each file
must therefore be schema-valid and in the serializer's canonical form,
so a hand edit keeps the exact layout ``descriptor_to_xml`` writes.
"""

import pytest

from repro.core.descriptor.schema import validate_descriptor_xml
from repro.core.descriptor.xml_io import descriptor_from_xml, descriptor_to_xml
from repro.core.proxies.factory import (
    SHIPPED_DESCRIPTOR_FILES,
    descriptors_dir,
    standard_registry,
)


class TestShippedFiles:
    def test_every_listed_file_exists(self):
        for file_name in SHIPPED_DESCRIPTOR_FILES:
            assert (descriptors_dir() / file_name).exists(), file_name

    @pytest.mark.parametrize("file_name", SHIPPED_DESCRIPTOR_FILES)
    def test_file_is_schema_valid(self, file_name):
        text = (descriptors_dir() / file_name).read_text()
        assert validate_descriptor_xml(text) == []

    @pytest.mark.parametrize("file_name", SHIPPED_DESCRIPTOR_FILES)
    def test_file_is_canonical(self, file_name):
        """Parsing the file and serializing it back gives the same bytes."""
        text = (descriptors_dir() / file_name).read_text()
        assert descriptor_to_xml(descriptor_from_xml(text)) == text

    def test_registry_loads_from_files(self):
        registry = standard_registry()
        assert len(registry) == len(SHIPPED_DESCRIPTOR_FILES)
