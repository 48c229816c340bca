"""The device-side assignment poll over the HTTP proxy."""

from repro.apps.workforce import scenario
from repro.apps.workforce.common import (
    PATH_POLL_ASSIGNMENT,
    SERVER_HOST,
    decode,
    encode,
)
from repro.apps.workforce.proxied import launch_on_android, launch_on_s60


def poll(logic):
    """The agent's next assignment, polled over its HTTP proxy the way
    ``examples/workforce_management.py`` does (``None`` when none)."""
    result = logic.http.post(
        f"http://{SERVER_HOST}{PATH_POLL_ASSIGNMENT}",
        encode({"agent": logic.config.agent.agent_id}),
    )
    assert result.ok
    return decode(result.body)


class TestAssignmentFlow:
    def test_poll_empty_queue(self):
        sc = scenario.build_android()
        logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
        assert poll(logic)["assignment"] is None

    def test_poll_is_exactly_once(self):
        sc = scenario.build_android()
        logic = launch_on_android(sc.platform, sc.new_context(), sc.config)
        sc.server.dispatch(sc.config.agent.agent_id, "site-7", "one job")
        assert poll(logic)["assignment"] is not None
        assert poll(logic)["assignment"] is None

    def test_same_flow_on_s60(self):
        """The poll needs nothing platform-specific: S60 gets it too."""
        sc = scenario.build_s60()
        logic = launch_on_s60(sc.platform, sc.config)
        dispatched = sc.server.dispatch(
            sc.config.agent.agent_id, sc.config.site.site_id, "paint fence"
        )
        assignment = poll(logic)
        assert assignment["assignment"] == dispatched.assignment_id
        assert assignment["description"] == "paint fence"
        assert dispatched.status == "assigned"
