"""The declarative scenario model (the record/replay DSL).

A :class:`Scenario` is pure data: a seed, an environment description
(fault-plan windows, resilience profile, optional concurrency-runtime
spec) and an ordered list of steps.  Nothing here touches a platform —
the :mod:`~repro.scenario.driver` builds the world and the
:mod:`~repro.scenario.recorder` executes the steps — so the same
scenario object can be recorded on one platform and replayed on any
other, including one hot-registered mid-run.

Step vocabulary
---------------

* ``call`` — one proxied invocation (``location.getLocation``,
  ``http.get`` …) or an app/server-level probe, with optional
  span-shape capture;
* ``advance`` — run the platform's virtual clock forward;
* ``callbacks`` — drain the app's activity events fired since the last
  capture (proximity callbacks, degraded-operation markers);
* ``burst`` — submit N concurrent requests through the attached
  concurrency runtime and drain, recording per-request outcomes
  (admitted / throttled 1013 / shed 1012 …);
* ``saga`` — run the canonical locate → enrich → post report saga on
  the attached distributed tier;
* ``assert`` — a declarative expectation over an earlier step's
  recorded outcome.

Every step carries a stable ``step_id`` so recordings align during
diffing, and an optional ``probe`` label that keys the declared
divergence table (see :mod:`~repro.scenario.divergence`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, FaultRule
from repro.runtime.admission import AdmissionConfig, TokenBucketConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.distrib.config import DistribConfig

#: Serialization schema tag for scenario documents.
SCENARIO_SCHEMA = "repro.scenario/v1"

#: Resilience profiles a scenario may request (see the proxy factory).
RESILIENCE_PROFILES = ("default", "chaos", "bare")

#: Call-step targets and the operations each understands.
CALL_TARGETS: Dict[str, Tuple[str, ...]] = {
    "location": (
        "getLocation",
        "addProximityAlert",
        "getProperty",
        "setProperty",
    ),
    "http": ("get", "post"),
    "sms": ("sendTextMessage",),
    "logic": ("reportLocation",),
    "server": ("activityLog", "reportCount"),
    "probe": ("createProxy",),
}

#: Assert operators.
ASSERT_OPS = ("equals", "contains")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class CallStep:
    """One uniform invocation (or probe) against the live world."""

    step_id: str
    target: str
    op: str
    args: Mapping[str, Any] = field(default_factory=dict)
    #: Divergence-table key; defaults to ``step_id`` during diffing.
    probe: Optional[str] = None
    #: Capture the normalized span shape of this call.
    capture_shape: bool = False

    kind = "call"

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", dict(self.args))
        _require(
            self.target in CALL_TARGETS,
            f"unknown call target {self.target!r}; known: {sorted(CALL_TARGETS)}",
        )
        _require(
            self.op in CALL_TARGETS[self.target],
            f"target {self.target!r} has no operation {self.op!r}; "
            f"known: {CALL_TARGETS[self.target]}",
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "step_id": self.step_id,
            "target": self.target,
            "op": self.op,
        }
        if self.args:
            out["args"] = dict(self.args)
        if self.probe is not None:
            out["probe"] = self.probe
        if self.capture_shape:
            out["capture_shape"] = True
        return out


@dataclass(frozen=True)
class AdvanceStep:
    """Run the world's virtual clock forward by ``delta_ms``."""

    step_id: str
    delta_ms: float

    kind = "advance"

    def __post_init__(self) -> None:
        _require(self.delta_ms > 0, "advance delta_ms must be positive")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "step_id": self.step_id,
            "delta_ms": self.delta_ms,
        }


@dataclass(frozen=True)
class CallbacksStep:
    """Capture the app's activity events fired since the last capture."""

    step_id: str
    probe: Optional[str] = None

    kind = "callbacks"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "step_id": self.step_id}
        if self.probe is not None:
            out["probe"] = self.probe
        return out


@dataclass(frozen=True)
class BurstStep:
    """N concurrent requests through the runtime's dispatcher, drained.

    The recorded outcome is the ordered per-request result list —
    ``"ok"`` or the uniform error code — which makes admission
    decisions (throttle waves, sheds) part of the scenario contract.
    """

    step_id: str
    op: str = "get"
    count: int = 8
    tenant: str = "scenario"
    coalesce: bool = False
    probe: Optional[str] = None

    kind = "burst"

    def __post_init__(self) -> None:
        _require(self.op in ("get", "getLocation"), f"unknown burst op {self.op!r}")
        _require(self.count >= 1, "burst count must be >= 1")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "step_id": self.step_id,
            "op": self.op,
            "count": self.count,
            "tenant": self.tenant,
            "coalesce": self.coalesce,
        }
        if self.probe is not None:
            out["probe"] = self.probe
        return out


@dataclass(frozen=True)
class SagaFlowStep:
    """The canonical multi-step report saga on the distributed tier.

    ``locate`` reads a fix, ``reserve`` writes a reservation row to the
    replicated ``reservations`` table (compensated by deletion),
    ``post`` reports to the server.  A fault window covering ``post``
    turns the recorded status into ``compensated``.
    """

    step_id: str
    saga: str = "report"
    probe: Optional[str] = None

    kind = "saga"

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "kind": self.kind,
            "step_id": self.step_id,
            "saga": self.saga,
        }
        if self.probe is not None:
            out["probe"] = self.probe
        return out


@dataclass(frozen=True)
class AssertStep:
    """A declarative expectation over an earlier step's outcome."""

    step_id: str
    step_ref: str
    path: str
    op: str = "equals"
    value: Any = None

    kind = "assert"

    def __post_init__(self) -> None:
        _require(self.op in ASSERT_OPS, f"unknown assert op {self.op!r}")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "step_id": self.step_id,
            "step_ref": self.step_ref,
            "path": self.path,
            "op": self.op,
            "value": self.value,
        }


STEP_KINDS = {
    "call": CallStep,
    "advance": AdvanceStep,
    "callbacks": CallbacksStep,
    "burst": BurstStep,
    "saga": SagaFlowStep,
    "assert": AssertStep,
}


def step_from_dict(payload: Mapping[str, Any]):
    """Rebuild one step from its serialized form."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = STEP_KINDS.get(kind)
    _require(cls is not None, f"unknown step kind {kind!r}")
    return cls(**data)


@dataclass(frozen=True)
class RuntimeSpec:
    """Optional concurrency-plane description for a scenario.

    ``admission`` (when given) carries token-bucket knobs —
    ``rate_per_s`` / ``capacity`` / ``overflow_capacity`` — for
    :meth:`admission_config` (autoscaling stays off: scenario admission
    outcomes are part of the recorded contract and must not depend on
    control-loop history).  ``distrib`` carries
    :class:`~repro.distrib.config.DistribConfig` keyword arguments
    mounting the distributed tier.  Both configs are built at
    declaration, so a setting they reject fails here, not mid-record.
    """

    shards: int = 2
    queue_depth: int = 8
    admission: Optional[Mapping[str, Any]] = None
    distrib: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        for name in ("shards", "queue_depth"):
            value = getattr(self, name)
            _require(
                type(value) is int, f"runtime {name} must be an int, got {value!r}"
            )
        _require(self.shards >= 1, "runtime shards must be >= 1")
        _require(self.queue_depth >= 1, "runtime queue_depth must be >= 1")
        if self.admission is not None:
            object.__setattr__(self, "admission", dict(self.admission))
        if self.distrib is not None:
            distrib = dict(self.distrib)
            if "regions" in distrib:
                distrib["regions"] = tuple(distrib["regions"])
            object.__setattr__(self, "distrib", distrib)
        self.admission_config()
        self.distrib_config()

    def admission_config(self) -> Optional[AdmissionConfig]:
        """The admission plane ``admission`` describes, or ``None``."""
        if self.admission is None:
            return None
        knobs = dict(self.admission)
        overflow = knobs.pop("overflow_capacity", 0)
        return AdmissionConfig(
            bucket=TokenBucketConfig(**knobs),
            overflow_capacity=overflow,
            autoscaler=None,
        )

    def distrib_config(self) -> Optional["DistribConfig"]:
        """The distributed tier ``distrib`` describes, or ``None``."""
        if self.distrib is None:
            return None
        # Imported lazily: repro.distrib is an optional tier.
        from repro.distrib.config import DistribConfig

        return DistribConfig(**self.distrib)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "shards": self.shards,
            "queue_depth": self.queue_depth,
        }
        if self.admission is not None:
            out["admission"] = dict(self.admission)
        if self.distrib is not None:
            distrib = dict(self.distrib)
            if "regions" in distrib:
                distrib["regions"] = list(distrib["regions"])
            out["distrib"] = distrib
        return out


@dataclass(frozen=True)
class ScenarioEnv:
    """The world a scenario runs in: faults, resilience, runtime."""

    #: Fault-plan rules as plain mappings of :class:`FaultRule` fields.
    fault_rules: Tuple[Mapping[str, Any], ...] = ()
    resilience: str = "default"
    runtime: Optional[RuntimeSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "fault_rules", tuple(dict(rule) for rule in self.fault_rules)
        )
        _require(
            self.resilience in RESILIENCE_PROFILES,
            f"resilience must be one of {RESILIENCE_PROFILES}, "
            f"got {self.resilience!r}",
        )
        # Validate rules eagerly: a typo must fail at declaration time,
        # not mid-record.
        for rule in self.fault_rules:
            FaultRule(**rule)

    def fault_plan(self, seed: int) -> Optional[FaultPlan]:
        if not self.fault_rules:
            return None
        return FaultPlan(
            seed=seed, rules=tuple(FaultRule(**rule) for rule in self.fault_rules)
        )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"resilience": self.resilience}
        if self.fault_rules:
            out["fault_rules"] = [dict(rule) for rule in self.fault_rules]
        if self.runtime is not None:
            out["runtime"] = self.runtime.to_dict()
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioEnv":
        runtime = payload.get("runtime")
        return cls(
            fault_rules=tuple(payload.get("fault_rules", ())),
            resilience=payload.get("resilience", "default"),
            runtime=RuntimeSpec(**runtime) if runtime is not None else None,
        )


@dataclass(frozen=True)
class Scenario:
    """One declarative app flow: seed + environment + ordered steps."""

    name: str
    steps: Tuple[Any, ...]
    seed: int = 0
    #: Default platform ``record``/``replay`` target when none is given.
    platform: str = "android"
    description: str = ""
    env: ScenarioEnv = field(default_factory=ScenarioEnv)

    def __post_init__(self) -> None:
        object.__setattr__(self, "steps", tuple(self.steps))
        _require(bool(self.name), "scenario name must be non-empty")
        _require(bool(self.steps), "scenario needs at least one step")
        seen = set()
        for step in self.steps:
            _require(
                step.step_id not in seen,
                f"duplicate step_id {step.step_id!r} in scenario {self.name!r}",
            )
            seen.add(step.step_id)
        for step in self.steps:
            if step.kind == "assert":
                _require(
                    step.step_ref in seen,
                    f"assert step {step.step_id!r} references unknown "
                    f"step {step.step_ref!r}",
                )
        needs_runtime = any(step.kind in ("burst", "saga") for step in self.steps)
        if needs_runtime:
            _require(
                self.env.runtime is not None,
                f"scenario {self.name!r} uses burst/saga steps but "
                "declares no runtime spec",
            )
        if any(step.kind == "saga" for step in self.steps):
            _require(
                self.env.runtime.distrib is not None,
                f"scenario {self.name!r} uses saga steps but its runtime "
                "spec mounts no distributed tier",
            )

    def step(self, step_id: str):
        for candidate in self.steps:
            if candidate.step_id == step_id:
                return candidate
        raise KeyError(step_id)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "seed": self.seed,
            "platform": self.platform,
            "description": self.description,
            "env": self.env.to_dict(),
            "steps": [step.to_dict() for step in self.steps],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        schema = payload.get("schema", SCENARIO_SCHEMA)
        _require(
            schema == SCENARIO_SCHEMA,
            f"unsupported scenario schema {schema!r}",
        )
        return cls(
            name=payload["name"],
            seed=payload.get("seed", 0),
            platform=payload.get("platform", "android"),
            description=payload.get("description", ""),
            env=ScenarioEnv.from_dict(payload.get("env", {})),
            steps=tuple(step_from_dict(step) for step in payload["steps"]),
        )

    def with_platform(self, platform: str) -> "Scenario":
        """The same scenario retargeted at another platform."""
        if platform == self.platform:
            return self
        return Scenario(
            name=self.name,
            steps=self.steps,
            seed=self.seed,
            platform=platform,
            description=self.description,
            env=self.env,
        )
