"""Scenario worlds: one live platform deployment per record/replay run.

A *world* bundles everything the step executor needs — the built
workforce scenario (device + platform + server), a tracing-enabled
observability hub, the launched :class:`WorkforceLogic`, an optional
:class:`~repro.runtime.ConcurrencyRuntime`, and a capability probe —
behind one platform-independent surface.

The builder table is **extensible at run time**:
:func:`register_scenario_driver` attaches a new platform's world
builder, so a recording can be replayed against a platform that did not
exist when it was captured (the paper's Section-3.3 extension story,
now exercised by the test driver; pair it with
:func:`repro.core.descriptor.model.register_platform` for the
descriptor vocabulary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.apps.workforce import scenario as worlds
from repro.apps.workforce.proxied import (
    WorkforceLogic,
    launch_on_android,
    launch_on_s60,
    launch_on_webview,
)
from repro.core.plugin.packaging import WebViewPlatformExtension
from repro.core.proxies import create_proxy
from repro.core.proxy.callbacks import ProximityListener
from repro.core.resilience import chaos_policy
from repro.errors import ConfigurationError, ProxyError
from repro.obs import Observability
from repro.runtime import ConcurrencyRuntime
from repro.scenario.model import Scenario

#: Span-tree layers below the middleware collapse to one opaque leaf.
_NATIVE_LAYERS = ("substrate", "bridge")


def normalized_shape(tracer, span) -> Tuple:
    """A span subtree reduced to its uniform middleware layer shape.

    Span names are ``layer:operation``; the shape keeps the layer only.
    Everything below the binding layer (``substrate``, ``bridge``) is
    platform plumbing — WebView legitimately runs two substrate hops
    through its bridge where Android runs one — so those subtrees
    collapse to a single ``native`` leaf.  What remains is the uniform
    middleware shape every platform must share.
    """
    layer = span.name.split(":", 1)[0]
    if layer in _NATIVE_LAYERS:
        return ("native",)
    children = tuple(
        normalized_shape(tracer, child) for child in tracer.children_of(span)
    )
    deduped = []
    for child in children:
        if not (deduped and deduped[-1] == child == ("native",)):
            deduped.append(child)
    return (layer, tuple(deduped))


class _SilentListener(ProximityListener):
    """Probe listener for validation-only alert registrations."""

    def proximity_event(self, *args) -> None:  # pragma: no cover - never fires
        pass


def _call_probe(platform_object, interface: str):
    try:
        create_proxy(interface, platform_object)
        return "available"
    except ProxyError as exc:
        return exc.error_code


@dataclass
class ScenarioWorld:
    """One live deployment a scenario executes against."""

    platform_name: str
    bundle: Any
    hub: Observability
    logic: WorkforceLogic
    runtime: Optional[ConcurrencyRuntime] = None
    #: interface → "available" | uniform error code.  WebView pre-probes
    #: inside the live page (proxies only bind there).
    probed: Dict[str, Any] = field(default_factory=dict)
    #: cursor into ``logic.activity_events`` for callbacks steps.
    event_cursor: int = 0

    def advance(self, delta_ms: float) -> None:
        self.bundle.platform.run_for(delta_ms)

    def drain_runtime(self) -> None:
        if self.runtime is None:
            raise ConfigurationError(
                f"scenario world on {self.platform_name!r} has no runtime"
            )
        self.runtime.drain()

    def probe_interface(self, interface: str):
        if interface in self.probed:
            return self.probed[interface]
        return _call_probe(self.bundle.platform, interface)

    def drain_callbacks(self):
        events = list(self.logic.activity_events[self.event_cursor:])
        self.event_cursor = len(self.logic.activity_events)
        return events


def _resilience_arg(scenario: Scenario):
    profile = scenario.env.resilience
    if profile == "chaos":
        seed = scenario.seed
        return lambda interface: chaos_policy(interface, seed=seed)
    if profile == "bare":
        return False
    return None  # the factory's passthrough-safe baseline


def _attach_runtime(
    scenario: Scenario, bundle, hub: Observability
) -> Optional[ConcurrencyRuntime]:
    spec = scenario.env.runtime
    if spec is None:
        return None
    return ConcurrencyRuntime(
        bundle.device.scheduler,
        shards=spec.shards,
        queue_depth=spec.queue_depth,
        seed=scenario.seed,
        observability=hub,
        admission=spec.admission_config(),
        distrib=spec.distrib_config(),
    )


def _build_android(scenario: Scenario) -> ScenarioWorld:
    hub = Observability()
    bundle = worlds.build_android(
        fault_plan=scenario.env.fault_plan(scenario.seed), observability=hub
    )
    logic = launch_on_android(
        bundle.platform,
        bundle.new_context(),
        bundle.config,
        resilience=_resilience_arg(scenario),
    )
    return ScenarioWorld(
        platform_name="android",
        bundle=bundle,
        hub=hub,
        logic=logic,
        runtime=_attach_runtime(scenario, bundle, hub),
    )


def _build_s60(scenario: Scenario) -> ScenarioWorld:
    hub = Observability()
    bundle = worlds.build_s60(
        fault_plan=scenario.env.fault_plan(scenario.seed), observability=hub
    )
    logic = launch_on_s60(
        bundle.platform, bundle.config, resilience=_resilience_arg(scenario)
    )
    return ScenarioWorld(
        platform_name="s60",
        bundle=bundle,
        hub=hub,
        logic=logic,
        runtime=_attach_runtime(scenario, bundle, hub),
    )


def _build_webview(scenario: Scenario) -> ScenarioWorld:
    hub = Observability()
    bundle = worlds.build_webview(
        fault_plan=scenario.env.fault_plan(scenario.seed), observability=hub
    )
    webview = bundle.platform.new_webview()
    WebViewPlatformExtension().install_wrappers(
        webview,
        bundle.platform,
        bundle.new_context(),
        ["Location", "Sms", "Http", "Call"],
    )
    holder: Dict[str, Any] = {}

    def page(window) -> None:
        # Proxies (and capability probes) must bind inside the live
        # page — the JS wrappers only exist in the loaded window.
        holder["logic"] = launch_on_webview(
            bundle.platform, bundle.config, resilience=_resilience_arg(scenario)
        )
        holder["call"] = _call_probe(bundle.platform, "Call")

    webview.load_page(page)
    return ScenarioWorld(
        platform_name="webview",
        bundle=bundle,
        hub=hub,
        logic=holder["logic"],
        runtime=_attach_runtime(scenario, bundle, hub),
        probed={"Call": holder["call"]},
    )


#: platform name → world builder.  Extensible: see
#: :func:`register_scenario_driver`.
SCENARIO_DRIVERS: Dict[str, Callable[[Scenario], ScenarioWorld]] = {
    "android": _build_android,
    "s60": _build_s60,
    "webview": _build_webview,
}


def register_scenario_driver(
    name: str, builder: Callable[[Scenario], ScenarioWorld]
) -> None:
    """Attach a world builder for a (possibly hot-registered) platform.

    Re-registering the same name replaces the builder — replay harnesses
    stand up disposable platforms and the latest registration wins.
    """
    SCENARIO_DRIVERS[name] = builder


def unregister_scenario_driver(name: str) -> None:
    """Detach a previously registered builder (test cleanup)."""
    SCENARIO_DRIVERS.pop(name, None)


def build_world(platform: str, scenario: Scenario) -> ScenarioWorld:
    builder = SCENARIO_DRIVERS.get(platform)
    if builder is None:
        raise ConfigurationError(
            f"no scenario driver for platform {platform!r}; "
            f"known: {sorted(SCENARIO_DRIVERS)}"
        )
    world = builder(scenario)
    world.platform_name = platform
    return world
