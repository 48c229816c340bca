"""Shared workforce domain model and wire protocol.

Device variants (native and proxied) and the server agree on this module;
it is platform-independent by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict

#: Well-known server host on the simulated network.
SERVER_HOST = "workforce.example.com"

#: Wire paths (POST with JSON bodies; the GCF stack has no query API).
PATH_REPORT_LOCATION = "/api/location"
PATH_LOG_EVENT = "/api/event"
PATH_POLL_ASSIGNMENT = "/api/assignment/poll"

#: The one idempotent GET: a stable service descriptor every agent polls.
#: Safe to coalesce — the body is a pure function of deployment config,
#: which is what makes it the runtime's canonical coalescing target.
PATH_STATUS = "/api/status"


@dataclass(frozen=True)
class SiteRegion:
    """A geographic work site with a proximity radius."""

    site_id: str
    latitude: float
    longitude: float
    radius_m: float
    description: str = ""


@dataclass(frozen=True)
class AgentProfile:
    """A field agent's identity."""

    agent_id: str
    phone_number: str
    supervisor_number: str


@dataclass
class WorkforceConfig:
    """Per-deployment knobs shared by every device variant."""

    agent: AgentProfile
    site: SiteRegion
    report_interval_ms: float = 30_000.0
    alert_timer_s: float = -1.0  # proximity alert expiration; -1 = never


@dataclass
class Assignment:
    """One unit of work dispatched to an agent."""

    assignment_id: str
    agent_id: str
    site_id: str
    description: str
    status: str = "pending"  # pending | assigned


def encode(payload: Dict) -> str:
    """Wire encoding (JSON)."""
    return json.dumps(payload)


def decode(body: str) -> Dict:
    """Wire decoding; tolerant of empty bodies."""
    if not body:
        return {}
    return json.loads(body)
