"""The server-side workforce application (Figure 1's right-hand box).

Book-keeping, request allocation and the activity log, served over the
simulated network.  Platform-neutral: every device variant talks to the
same server through whatever HTTP stack its platform provides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.apps.workforce.common import (
    Assignment,
    PATH_LOG_EVENT,
    PATH_POLL_ASSIGNMENT,
    PATH_REPORT_LOCATION,
    PATH_STATUS,
    SERVER_HOST,
    decode,
    encode,
)
from repro.device.network import HttpRequest, HttpResponse, SimulatedNetwork
from repro.util.identifiers import IdGenerator


@dataclass
class AgentTrack:
    """Last known state of one agent."""

    agent_id: str
    latitude: float = 0.0
    longitude: float = 0.0
    last_report_ms: float = 0.0
    report_count: int = 0


@dataclass(frozen=True)
class ActivityRecord:
    """One activity-log line."""

    agent_id: str
    event: str
    detail: str
    timestamp_ms: float


class WorkforceServer:
    """Agent tracking, request assignment and the activity log."""

    def __init__(self, network: SimulatedNetwork, host: str = SERVER_HOST) -> None:
        self.host = host
        self._ids = IdGenerator()
        self._tracks: Dict[str, AgentTrack] = {}
        self._activity: List[ActivityRecord] = []
        self._assignments: Dict[str, Assignment] = {}
        server = network.add_server(host)
        server.route("POST", PATH_REPORT_LOCATION, self._on_report_location)
        server.route("POST", PATH_LOG_EVENT, self._on_log_event)
        server.route("POST", PATH_POLL_ASSIGNMENT, self._on_poll_assignment)
        server.route("GET", PATH_STATUS, self._on_status)
        #: GET requests served (the coalescing benchmarks diff this
        #: against submissions to show the saved round trips).
        self.status_requests = 0

    # -- read model (enterprise dashboard) -----------------------------------

    def track_of(self, agent_id: str) -> Optional[AgentTrack]:
        return self._tracks.get(agent_id)

    def activity_log(self, agent_id: Optional[str] = None) -> List[ActivityRecord]:
        if agent_id is None:
            return list(self._activity)
        return [record for record in self._activity if record.agent_id == agent_id]

    def assignments_for(self, agent_id: str) -> List[Assignment]:
        return [a for a in self._assignments.values() if a.agent_id == agent_id]

    # -- dispatcher actions -------------------------------------------------------

    def dispatch(self, agent_id: str, site_id: str, description: str) -> Assignment:
        """Create an assignment directly (server-side dispatcher console)."""
        assignment = Assignment(
            assignment_id=self._ids.next("job"),
            agent_id=agent_id,
            site_id=site_id,
            description=description,
        )
        self._assignments[assignment.assignment_id] = assignment
        return assignment

    # -- HTTP handlers --------------------------------------------------------------

    def _on_report_location(self, request: HttpRequest) -> HttpResponse:
        body = decode(request.body)
        agent_id = body.get("agent")
        if not agent_id:
            return HttpResponse(400, encode({"error": "agent required"}))
        track = self._tracks.setdefault(agent_id, AgentTrack(agent_id=agent_id))
        track.latitude = float(body.get("latitude", 0.0))
        track.longitude = float(body.get("longitude", 0.0))
        track.last_report_ms = float(body.get("timestamp_ms", 0.0))
        track.report_count += 1
        return HttpResponse(200, encode({"ok": True}))

    def _on_log_event(self, request: HttpRequest) -> HttpResponse:
        body = decode(request.body)
        agent_id = body.get("agent")
        event = body.get("event")
        if not agent_id or not event:
            return HttpResponse(400, encode({"error": "agent and event required"}))
        self._activity.append(
            ActivityRecord(
                agent_id=agent_id,
                event=event,
                detail=body.get("detail", ""),
                timestamp_ms=float(body.get("timestamp_ms", 0.0)),
            )
        )
        return HttpResponse(200, encode({"ok": True}))

    def _on_poll_assignment(self, request: HttpRequest) -> HttpResponse:
        body = decode(request.body)
        agent_id = body.get("agent")
        if not agent_id:
            return HttpResponse(400, encode({"error": "agent required"}))
        for assignment in self._assignments.values():
            if assignment.agent_id == agent_id and assignment.status == "pending":
                assignment.status = "assigned"
                return HttpResponse(
                    200,
                    encode(
                        {
                            "assignment": assignment.assignment_id,
                            "site": assignment.site_id,
                            "description": assignment.description,
                        }
                    ),
                )
        return HttpResponse(200, encode({"assignment": None}))

    def _on_status(self, request: HttpRequest) -> HttpResponse:
        """Stable service descriptor — deliberately a pure function of
        deployment config so concurrent GETs may coalesce safely."""
        self.status_requests += 1
        return HttpResponse(
            200, encode({"ok": True, "service": "workforce", "host": self.host})
        )
