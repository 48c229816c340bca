"""The declarative scenario model: validation and serialization."""

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    AdvanceStep,
    AssertStep,
    BurstStep,
    CallStep,
    CallbacksStep,
    RuntimeSpec,
    SagaFlowStep,
    Scenario,
    ScenarioEnv,
    build,
    names,
)
from repro.scenario.model import step_from_dict

pytestmark = pytest.mark.scenario


def minimal(**overrides) -> Scenario:
    defaults = dict(
        name="minimal",
        steps=(AdvanceStep("s0", 1_000.0),),
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestStepValidation:
    def test_unknown_call_target(self):
        with pytest.raises(ConfigurationError, match="unknown call target"):
            CallStep("s0", "bluetooth", "pair")

    def test_unknown_call_op(self):
        with pytest.raises(ConfigurationError, match="no operation"):
            CallStep("s0", "location", "teleport")

    def test_advance_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="positive"):
            AdvanceStep("s0", 0.0)

    def test_burst_op_and_count(self):
        with pytest.raises(ConfigurationError, match="burst op"):
            BurstStep("s0", op="post")
        with pytest.raises(ConfigurationError, match="count"):
            BurstStep("s0", count=0)

    def test_assert_op(self):
        with pytest.raises(ConfigurationError, match="assert op"):
            AssertStep("s1", "s0", "result", op="matches")

    def test_unknown_step_kind(self):
        with pytest.raises(ConfigurationError, match="unknown step kind"):
            step_from_dict({"kind": "teleport", "step_id": "s0"})


class TestScenarioValidation:
    def test_duplicate_step_ids(self):
        with pytest.raises(ConfigurationError, match="duplicate step_id"):
            minimal(
                steps=(AdvanceStep("s0", 1.0), CallbacksStep("s0")),
            )

    def test_assert_must_reference_a_step(self):
        with pytest.raises(ConfigurationError, match="unknown step"):
            minimal(
                steps=(
                    AdvanceStep("s0", 1.0),
                    AssertStep("s1", "nope", "result", "equals", 1),
                ),
            )

    def test_burst_needs_a_runtime(self):
        with pytest.raises(ConfigurationError, match="no runtime spec"):
            minimal(steps=(BurstStep("s0"),))

    def test_saga_needs_the_distributed_tier(self):
        with pytest.raises(ConfigurationError, match="distributed tier"):
            minimal(
                steps=(SagaFlowStep("s0"),),
                env=ScenarioEnv(runtime=RuntimeSpec()),
            )

    def test_unknown_resilience_profile(self):
        with pytest.raises(ConfigurationError, match="resilience"):
            ScenarioEnv(resilience="heroic")

    def test_fault_rules_validated_at_declaration(self):
        with pytest.raises(Exception):
            ScenarioEnv(
                fault_rules=({"site": "network.request", "kind": "vanish"},)
            )

    @pytest.mark.parametrize(
        "settings,error",
        [
            ({"shards": 1.5}, ConfigurationError),  # a TypeError at dispatch
            ({"shards": True}, ConfigurationError),
            ({"queue_depth": 8.0}, ConfigurationError),
            (  # ran as 1 through int()
                {"admission": {"rate_per_s": 5.0, "overflow_capacity": 1.5}},
                ConfigurationError,
            ),
            ({"admission": {"rate_per_s": float("nan")}}, ConfigurationError),
            ({"admission": {"capacity": 0.5}}, ConfigurationError),
            ({"distrib": {"regions": []}}, ConfigurationError),
            ({"distrib": {"write_quorum": 3}}, ConfigurationError),
            (  # anti-entropy never ran
                {"distrib": {"gossip_interval_ms": float("nan")}},
                ConfigurationError,
            ),
            ({"admission": {"initial": 1.0}}, TypeError),  # no such setting
            ({"distrib": {"gossip_fanout": 2}}, TypeError),
        ],
        ids=[
            "fractional-shards",
            "bool-shards",
            "float-queue-depth",
            "fractional-overflow",
            "nan-rate",
            "capacity-below-one",
            "no-regions",
            "quorum-above-regions",
            "nan-gossip-interval",
            "deleted-initial",
            "deleted-gossip-fanout",
        ],
    )
    def test_runtime_settings_checked_at_declaration(self, settings, error):
        with pytest.raises(error):
            RuntimeSpec(**settings)
        with pytest.raises(error):
            ScenarioEnv.from_dict({"runtime": settings})

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one step"):
            minimal(steps=())
        with pytest.raises(ConfigurationError, match="name"):
            minimal(name="")


class TestSerialization:
    @pytest.mark.parametrize("name", names())
    def test_bundled_scenarios_round_trip(self, name):
        scenario = build(name)
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_unsupported_schema_rejected(self):
        payload = build("commute").to_dict()
        payload["schema"] = "repro.scenario/v999"
        with pytest.raises(ConfigurationError, match="schema"):
            Scenario.from_dict(payload)

    def test_with_platform(self):
        scenario = build("commute")
        assert scenario.with_platform(scenario.platform) is scenario
        retargeted = scenario.with_platform("s60")
        assert retargeted.platform == "s60"
        assert retargeted.steps == scenario.steps
        assert retargeted.seed == scenario.seed

    def test_step_lookup(self):
        scenario = build("commute")
        assert scenario.step("s00").kind == "advance"
        with pytest.raises(KeyError):
            scenario.step("s99")
