"""The SMS M-Proxy: uniform text messaging with status callbacks."""

from repro.core.proxies.sms.api import SmsProxy

__all__ = ["SmsProxy"]
