"""Android binding of the Contacts proxy (ContentResolver underneath)."""

from __future__ import annotations

from typing import List

from repro.core.proxies.android_common import AndroidBinding
from repro.core.proxies.contacts.api import ContactsProxy
from repro.core.proxies.factory import register_implementation
from repro.core.proxy.datatypes import Contact
from repro.platforms.android.contacts import (
    COLUMN_DISPLAY_NAME,
    COLUMN_EMAIL,
    COLUMN_ID,
    COLUMN_NUMBER,
    CONTACTS_URI,
    ContentValues,
)


class AndroidContactsProxyImpl(AndroidBinding, ContactsProxy):
    """``com.ibm.proxies.android.contacts.ContactsProxyImpl``."""

    def _resolver(self, for_what: str):
        return self._context(for_what).get_content_resolver()

    @staticmethod
    def _drain(cursor) -> List[Contact]:
        contacts = []
        while cursor.move_to_next():
            number = cursor.get_string(COLUMN_NUMBER)
            contacts.append(
                Contact(
                    contact_id=cursor.get_string(COLUMN_ID),
                    name=cursor.get_string(COLUMN_DISPLAY_NAME),
                    phone_numbers=(number,) if number else (),
                    email=cursor.get_string(COLUMN_EMAIL) or "",
                )
            )
        cursor.close()
        return contacts

    def list_contacts(self) -> List[Contact]:
        return self._call(
            "listContacts",
            lambda: self._drain(self._resolver("listContacts").query(CONTACTS_URI)),
        )

    def find_by_name(self, name: str) -> List[Contact]:
        def attempt() -> List[Contact]:
            cursor = self._resolver("findByName").query(CONTACTS_URI, selection=name)
            return self._drain(cursor)

        return self._call("findByName", attempt, name=name)

    def add_contact(self, name: str, phone_number: str) -> str:
        def attempt() -> str:
            values = ContentValues()
            values.put(COLUMN_DISPLAY_NAME, name)
            values.put(COLUMN_NUMBER, phone_number)
            row_uri = self._resolver("addContact").insert(CONTACTS_URI, values)
            return row_uri.rsplit("/", 1)[-1]

        return self._call("addContact", attempt, name=name, phoneNumber=phone_number)

    def remove_contact(self, contact_id: str) -> None:
        self._call(
            "removeContact",
            lambda: self._resolver("removeContact").delete(
                f"{CONTACTS_URI}/{contact_id}"
            ),
            contactId=contact_id,
        )


register_implementation(
    "com.ibm.proxies.android.contacts.ContactsProxyImpl", AndroidContactsProxyImpl
)
