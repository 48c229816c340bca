"""Tests for the workforce server-side application."""

import pytest

from repro.apps.workforce.common import (
    PATH_LOG_EVENT,
    PATH_POLL_ASSIGNMENT,
    PATH_REPORT_LOCATION,
    SERVER_HOST,
    encode,
)
from repro.apps.workforce.server import WorkforceServer
from repro.device.network import HttpRequest, SimulatedNetwork
from repro.util.clock import Scheduler


@pytest.fixture
def network(scheduler):
    return SimulatedNetwork(scheduler)


@pytest.fixture
def server(network):
    return WorkforceServer(network)


def _post(network, path, payload):
    return network.request(
        HttpRequest("POST", SERVER_HOST, path, body=encode(payload))
    )


class TestTracking:
    def test_location_report_updates_track(self, network, server):
        response = _post(
            network,
            PATH_REPORT_LOCATION,
            {"agent": "a1", "latitude": 28.6, "longitude": 77.2, "timestamp_ms": 5.0},
        )
        assert response.ok
        track = server.track_of("a1")
        assert (track.latitude, track.longitude) == (28.6, 77.2)
        assert track.report_count == 1

    def test_report_requires_agent(self, network, server):
        response = _post(network, PATH_REPORT_LOCATION, {"latitude": 1.0})
        assert response.status == 400

    def test_unknown_agent_track_is_none(self, server):
        assert server.track_of("ghost") is None


class TestActivityLog:
    def test_event_logged(self, network, server):
        _post(
            network,
            PATH_LOG_EVENT,
            {"agent": "a1", "event": "arrived", "detail": "x", "timestamp_ms": 9.0},
        )
        log = server.activity_log("a1")
        assert [(r.event, r.detail) for r in log] == [("arrived", "x")]

    def test_log_filters_by_agent(self, network, server):
        _post(network, PATH_LOG_EVENT, {"agent": "a1", "event": "arrived"})
        _post(network, PATH_LOG_EVENT, {"agent": "a2", "event": "departed"})
        assert len(server.activity_log()) == 2
        assert len(server.activity_log("a1")) == 1

    def test_event_requires_fields(self, network, server):
        assert _post(network, PATH_LOG_EVENT, {"agent": "a1"}).status == 400


class TestAssignments:
    def test_dispatch_and_poll(self, network, server):
        server.dispatch("a1", "site-7", "fix the antenna")
        response = _post(network, PATH_POLL_ASSIGNMENT, {"agent": "a1"})
        import json

        body = json.loads(response.body)
        assert body["site"] == "site-7"
        assert body["description"] == "fix the antenna"
        # polled assignment is now assigned, not re-served
        second = _post(network, PATH_POLL_ASSIGNMENT, {"agent": "a1"})
        assert json.loads(second.body)["assignment"] is None

    def test_poll_other_agents_assignment_hidden(self, network, server):
        import json

        server.dispatch("a1", "site-7", "task")
        response = _post(network, PATH_POLL_ASSIGNMENT, {"agent": "a2"})
        assert json.loads(response.body)["assignment"] is None

    def test_assignments_for_agent(self, server):
        server.dispatch("a1", "s1", "d1")
        server.dispatch("a1", "s2", "d2")
        server.dispatch("a2", "s3", "d3")
        assert len(server.assignments_for("a1")) == 2
