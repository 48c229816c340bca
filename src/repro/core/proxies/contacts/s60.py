"""S60 binding of the Contacts proxy (JSR-75 PIM underneath)."""

from __future__ import annotations

from typing import List, Optional

from repro.core.descriptor.model import ProxyDescriptor
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import Contact as UniformContact
from repro.platforms.s60.pim import Contact, ContactItem, PimStatics
from repro.platforms.s60.platform import S60Platform


def _to_uniform(item: ContactItem) -> UniformContact:
    numbers = tuple(
        item.get_string(Contact.TEL, index)
        for index in range(item.count_values(Contact.TEL))
    )
    email = (
        item.get_string(Contact.EMAIL, 0)
        if item.count_values(Contact.EMAIL)
        else ""
    )
    return UniformContact(
        contact_id=item.record_id,
        name=item.get_string(Contact.FORMATTED_NAME, 0),
        phone_numbers=numbers,
        email=email,
    )


class S60ContactsProxyImpl(ContactsProxy):
    """``com.ibm.S60.contacts.ContactsProxy``."""

    def __init__(self, descriptor: ProxyDescriptor, platform: S60Platform) -> None:
        super().__init__(descriptor, "s60")
        self._platform = platform

    def _open(self, mode: int):
        return self._platform.pim.open_pim_list(PimStatics.CONTACT_LIST, mode)

    def _matching(self, name: Optional[str]) -> List[UniformContact]:
        contact_list = self._open(PimStatics.READ_ONLY)
        try:
            items = (
                contact_list.items()
                if name is None
                else contact_list.items_matching(name)
            )
            return [_to_uniform(item) for item in items]
        finally:
            contact_list.close()

    def list_contacts(self) -> List[UniformContact]:
        return self._call("listContacts", lambda: self._matching(None))

    def find_by_name(self, name: str) -> List[UniformContact]:
        return self._call("findByName", lambda: self._matching(name), name=name)

    def add_contact(self, name: str, phone_number: str) -> str:
        def attempt() -> str:
            contact_list = self._open(PimStatics.READ_WRITE)
            try:
                item = contact_list.create_contact()
                item.add_string(Contact.FORMATTED_NAME, 0, name)
                item.add_string(Contact.TEL, 0, phone_number)
                item.commit()
                return item.record_id
            finally:
                contact_list.close()

        return self._call("addContact", attempt, name=name, phoneNumber=phone_number)

    def remove_contact(self, contact_id: str) -> None:
        def attempt() -> None:
            contact_list = self._open(PimStatics.READ_WRITE)
            try:
                for item in contact_list.items():
                    if item.record_id == contact_id:
                        contact_list.remove_contact(item)
                        return
                # Unknown ids are a uniform no-op.
            finally:
                contact_list.close()

        self._call("removeContact", attempt, contactId=contact_id)


register_implementation("com.ibm.S60.contacts.ContactsProxy", S60ContactsProxyImpl)
