"""WebView binding of the Contacts proxy.

Contact data is plain values, so the bridge calls are synchronous: lists
cross as JSON arrays inside the usual envelopes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.proxies.contacts.android import AndroidContactsProxyImpl
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxies.webview_common import (
    JavaWrapper,
    JsProxy,
    bridge_entry,
    decode_or_raise,
)
from repro.core.proxy.datatypes import Contact


def _contact_payload(contact: Contact) -> Dict:
    return {
        "contactId": contact.contact_id,
        "name": contact.name,
        "phoneNumbers": list(contact.phone_numbers),
        "email": contact.email,
    }


def _contact_from_payload(payload: Dict) -> Contact:
    return Contact(
        contact_id=payload["contactId"],
        name=payload["name"],
        phone_numbers=tuple(payload.get("phoneNumbers", ())),
        email=payload.get("email", ""),
    )


class ContactsWrapperJava(JavaWrapper):
    """Java side, step 2: the ``ContactsWrapper`` class behind the bridge."""

    ANDROID_BINDING = AndroidContactsProxyImpl

    @bridge_entry
    def list_contacts(self, handle: int) -> Dict:
        contacts = self._instance(handle).list_contacts()
        return {"contacts": [_contact_payload(c) for c in contacts]}

    @bridge_entry
    def find_by_name(self, handle: int, name: str) -> Dict:
        contacts = self._instance(handle).find_by_name(name)
        return {"contacts": [_contact_payload(c) for c in contacts]}

    @bridge_entry
    def add_contact(self, handle: int, name: str, phone_number: str) -> Dict:
        return {"contactId": self._instance(handle).add_contact(name, phone_number)}

    @bridge_entry
    def remove_contact(self, handle: int, contact_id: str) -> None:
        self._instance(handle).remove_contact(contact_id)


class ContactsProxyJs(JsProxy, ContactsProxy):
    """JS side: ``com.ibm.proxies.webview.contacts.ContactsProxyJs``."""

    @staticmethod
    def _contacts(envelope_json: str) -> List[Contact]:
        payload = decode_or_raise(envelope_json)
        return [_contact_from_payload(c) for c in payload["contacts"]]

    def list_contacts(self) -> List[Contact]:
        return self._call(
            "listContacts",
            lambda: self._contacts(self._wrapper.list_contacts(self._swi)),
        )

    def find_by_name(self, name: str) -> List[Contact]:
        return self._call(
            "findByName",
            lambda: self._contacts(self._wrapper.find_by_name(self._swi, name)),
            name=name,
        )

    def add_contact(self, name: str, phone_number: str) -> str:
        payload = self._call(
            "addContact",
            lambda: decode_or_raise(
                self._wrapper.add_contact(self._swi, name, phone_number)
            ),
            name=name,
            phoneNumber=phone_number,
        )
        return payload["contactId"]

    def remove_contact(self, contact_id: str) -> None:
        self._call(
            "removeContact",
            lambda: decode_or_raise(self._wrapper.remove_contact(self._swi, contact_id)),
            contactId=contact_id,
        )


register_implementation(
    "com.ibm.proxies.webview.contacts.ContactsProxyJs", ContactsProxyJs
)
