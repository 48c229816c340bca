"""Proxy enrichment (paper Section 3.3).

Value-added layers stacked on top of a proxy's native functionality:

* :mod:`~repro.core.enrichment.formats` — location output in degrees or
  radians (the paper's example);
* :mod:`~repro.core.enrichment.retry` — call retry coordination when the
  callee is unreachable (the paper's other example);
* :mod:`~repro.core.enrichment.security` — trust/authentication/access
  control policy modules.
"""

from repro.core.enrichment.formats import FormattedPosition, LocationFormatEnrichment
from repro.core.enrichment.retry import CallRetryCoordinator, RetryPolicy, RetryReport
from repro.core.enrichment.security import (
    AccessDecision,
    AccessRule,
    AuditRecord,
    Principal,
    SecurityPolicy,
    SecuredProxy,
)

__all__ = [
    "AccessDecision",
    "AccessRule",
    "AuditRecord",
    "CallRetryCoordinator",
    "FormattedPosition",
    "LocationFormatEnrichment",
    "Principal",
    "RetryPolicy",
    "RetryReport",
    "SecuredProxy",
    "SecurityPolicy",
]
