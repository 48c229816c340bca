"""Priority classes for admission decisions.

Operations declare how much they matter so overload policy can be
*selective*: a full queue sheds status polls before location reports,
and reports before SMS alerts, instead of rejecting whatever happens to
arrive last.  Three classes are enough to express the workforce app's
actual value ordering (the paper's Figure 1 traffic):

* ``PRIORITY_LOW`` — cheap, repeated, idempotent reads whose loss costs
  one polling interval (status GETs, property polls);
* ``PRIORITY_NORMAL`` — the business payload (location report POSTs);
* ``PRIORITY_HIGH`` — operator-facing escalations (SMS alerts) that
  must survive any overload the runtime can absorb.

The integer values are ordered (higher = more valuable) and stable —
they appear verbatim in ``queue.shed`` span events, shed-error context
and the ``admission.shed`` metric labels, so exports stay diffable.
"""

from __future__ import annotations

from typing import Mapping

PRIORITY_LOW = 0
PRIORITY_NORMAL = 1
PRIORITY_HIGH = 2

#: Stable names for labels, span events and rendered summaries.
PRIORITY_NAMES: Mapping[int, str] = {
    PRIORITY_LOW: "low",
    PRIORITY_NORMAL: "normal",
    PRIORITY_HIGH: "high",
}

#: Operation → class mapping.  Keys are the operation strings
#: the runtime's conveniences and the workforce fleet actually submit;
#: unknown operations fall back to ``PRIORITY_NORMAL`` (never silently
#: the sheddable class).
DEFAULT_PRIORITY_MAP: Mapping[str, int] = {
    # idempotent, repeated reads: cheapest to lose
    "get": PRIORITY_LOW,
    "getProperty": PRIORITY_LOW,
    "getLocation": PRIORITY_LOW,
    # the business payload
    "post": PRIORITY_NORMAL,
    # operator escalations
    "sendTextMessage": PRIORITY_HIGH,
    "sendSMS": PRIORITY_HIGH,
}


def priority_name(priority: int) -> str:
    """Render a class value for labels (unknown values pass through)."""
    return PRIORITY_NAMES.get(priority, str(priority))


def classify_operation(operation: str) -> int:
    """The priority class for ``operation``."""
    return DEFAULT_PRIORITY_MAP.get(operation, PRIORITY_NORMAL)
