"""Multi-agent fleet scenarios.

The paper's Figure 1 shows an enterprise managing *agents*, plural.  This
module wires several simulated handsets onto shared infrastructure — one
virtual clock, one SMS center, one data network, one workforce server, and
a supervisor handset that actually receives the agents' messages — so the
whole deployment advances under a single ``run_for``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

from repro.apps.workforce.common import (
    PATH_REPORT_LOCATION,
    PATH_STATUS,
    SERVER_HOST,
    AgentProfile,
    SiteRegion,
    WorkforceConfig,
    encode,
)
from repro.apps.workforce.proxied import WorkforceLogic, launch_on_android
from repro.apps.workforce.scenario import (
    ANDROID_PERMISSIONS,
    AWAY_DISTANCE_M,
    LEG_MS,
    PACKAGE,
)
from repro.apps.workforce.server import WorkforceServer
from repro.device.device import MobileDevice
from repro.device.gps import Trajectory, Waypoint
from repro.device.messaging import SmsCenter
from repro.device.network import SimulatedNetwork
from repro.obs import FlightRecorder, Observability
from repro.obs.analyze.admission import AdmissionReport
from repro.obs.analyze.causal import CausalReport
from repro.obs.analyze.slo import SloEngine, SloSpec, SloStatus
from repro.obs.pipeline import HealthReport, PipelineConfig, TelemetryPipeline
from repro.platforms.android.platform import AndroidPlatform
from repro.runtime import AdmissionConfig, AgentTask, ConcurrencyRuntime
from repro.util.clock import Scheduler, SimulatedClock
from repro.util.events import EventBus
from repro.util.geo import GeoPoint, destination_point

if TYPE_CHECKING:  # pragma: no cover
    from repro.distrib.config import DistribConfig
    from repro.faults.plan import FaultPlan

SUPERVISOR_NUMBER = "+915550001"

#: Per-agent failure events that must escalate to the supervisor.
FAILURE_EVENTS = frozenset(
    {"sms-failed", "report-failed", "log-failed", "status-failed"}
)


@dataclass
class FleetAgent:
    """One agent's slice of the fleet."""

    profile: AgentProfile
    site: SiteRegion
    device: MobileDevice
    platform: AndroidPlatform
    logic: WorkforceLogic = None
    #: Home region in the distrib tier (``build_fleet(distrib=)``);
    #: agents are assigned round-robin over the configured regions.
    region: Optional[str] = None
    slo_engine: Optional[SloEngine] = None
    #: finished-span cursor so repeated SLO evaluations never double-ingest.
    slo_cursor: int = 0
    #: activity-event cursor for Fleet error surfacing (same pattern).
    error_cursor: int = 0
    #: the agent's cooperative workload, when driven through the runtime.
    task: Optional[AgentTask] = None


@dataclass
class Fleet:
    """A deployed fleet sharing one simulated world."""

    scheduler: Scheduler
    server: WorkforceServer
    supervisor: MobileDevice
    agents: List[FleetAgent] = field(default_factory=list)
    #: The concurrency plane (``build_fleet(runtime=True)``); ``None``
    #: keeps the pre-runtime direct-call fleet behaviour.
    runtime: Optional[ConcurrencyRuntime] = None
    #: The runtime's flight recorder (``build_fleet(flight_recorder=True)``).
    flight: Optional[FlightRecorder] = None
    #: The fleet-wide telemetry pipeline (``build_fleet(pipeline=...)``):
    #: every agent tracer (tagged ``source=<agent-id>``) plus the runtime
    #: hub's tracer drain into one sampled, bounded, rolled-up stream.
    pipeline: Optional[TelemetryPipeline] = None
    #: Operational alerts surfaced to the supervisor (see ``run_for``).
    alerts: List[str] = field(default_factory=list)
    _alerted_tasks: int = field(default=0, repr=False)
    #: Highest flight-dump sequence already surfaced (dumps evict, so a
    #: sequence cursor — not a list length — tracks what's new).
    _alerted_dumps: int = field(default=0, repr=False)
    #: Per-platform cursor into the admission controller's storm log.
    _alerted_storms: Dict[str, int] = field(default_factory=dict, repr=False)
    #: Cursor into the distrib tier's causal-violation log.
    _alerted_violations: int = field(default=0, repr=False)
    #: Whether install_slos already subscribed to the pipeline stream.
    _slo_observing: bool = field(default=False, repr=False)

    def run_for(self, delta_ms: float) -> int:
        """Advance the whole fleet's shared virtual time.

        Besides returning the executed-callback count, this *surfaces
        per-agent errors*: failure events the agents' business logic
        swallowed locally (``sms-failed`` …) and cooperative tasks that
        died, both of which previously vanished, become supervisor
        alerts readable from :attr:`supervisor_inbox`.
        """
        executed = self.scheduler.run_for(delta_ms)
        self._surface_agent_errors()
        return executed

    def agent(self, agent_id: str) -> FleetAgent:
        for entry in self.agents:
            if entry.profile.agent_id == agent_id:
                return entry
        raise KeyError(f"no agent {agent_id!r} in the fleet")

    @property
    def supervisor_inbox(self) -> List[str]:
        """Texts the supervisor handset has received, in order, followed
        by any fleet alerts surfaced by :meth:`run_for`."""
        return [message.text for message in self.supervisor.inbox] + list(self.alerts)

    def _surface_agent_errors(self) -> None:
        for agent in self.agents:
            if agent.logic is None:
                continue
            events = agent.logic.activity_events
            for event in events[agent.error_cursor:]:
                if event in FAILURE_EVENTS:
                    self.alerts.append(
                        f"[fleet-alert] {agent.profile.agent_id}: {event}"
                    )
            agent.error_cursor = len(events)
        if self.runtime is not None:
            failed = self.runtime.tasks.failed_tasks()
            for task in failed[self._alerted_tasks:]:
                self.alerts.append(
                    f"[fleet-alert] task {task.name} failed: "
                    f"{type(task.error).__name__}: {task.error}"
                )
            self._alerted_tasks = len(failed)
            for platform, dispatcher in sorted(
                self.runtime.dispatchers().items()
            ):
                controller = dispatcher.admission
                if controller is None:
                    continue
                cursor = self._alerted_storms.get(platform, 0)
                for storm in controller.storms[cursor:]:
                    self.alerts.append(
                        f"[fleet-alert] admission storm on {platform}: "
                        f"{storm['rejections']} rejections in "
                        f"{storm['window_ms']:.0f}ms (kind={storm['kind']})"
                    )
                self._alerted_storms[platform] = len(controller.storms)
            if self.runtime.distrib is not None:
                violations = self.runtime.distrib.monitor.violations
                for violation in violations[self._alerted_violations:]:
                    self.alerts.append(
                        f"[fleet-alert] causal violation: {violation['kind']} "
                        f"in {violation.get('region', '?')} "
                        f"@{violation['t_ms']:.1f}ms"
                    )
                self._alerted_violations = len(violations)
        if self.flight is not None:
            for dump in self.flight.dumps:
                if dump["sequence"] <= self._alerted_dumps:
                    continue
                self.alerts.append(
                    f"[fleet-alert] flight dump #{dump['sequence']}: "
                    f"{dump['reason']} @{dump['t_virtual_ms']:.1f}ms "
                    f"({len(dump['spans'])} spans, {len(dump['events'])} events)"
                )
                self._alerted_dumps = dump["sequence"]

    # -- service-level objectives -------------------------------------------

    def install_slos(self, specs: Sequence[SloSpec]) -> None:
        """Give every agent its own :class:`SloEngine` over the shared
        specs, wired to that agent's metrics registry and tracer (so
        ``slo.*`` series and ``slo.breach`` events land per handset).

        The fleet must have been built with ``observability=True`` —
        dispatch spans are what the engines ingest.

        With a telemetry pipeline attached, each engine subscribes to
        the pipeline's completed-trace stream instead of rescanning its
        tracer: observers fire for *every* trace before sampling, so SLO
        evaluation stays exact even when the tracers retain nothing.
        """
        for agent in self.agents:
            agent.slo_engine = SloEngine(
                specs,
                metrics=agent.device.obs.metrics,
                tracer=agent.device.obs.tracer,
                flight=self.flight,
            )
            agent.slo_cursor = 0
        if self.pipeline is not None and not self._slo_observing:
            self.pipeline.add_observer(self._ingest_trace_for_slos)
            self._slo_observing = True

    def _ingest_trace_for_slos(self, source, spans) -> None:
        """Pipeline observer: route a completed trace to its agent's
        SLO engine (runtime-hub traces carry no agent source; skip)."""
        for agent in self.agents:
            if agent.profile.agent_id == source:
                if agent.slo_engine is not None:
                    agent.slo_engine.ingest_spans(spans)
                return

    def evaluate_slos(self) -> Dict[str, List[SloStatus]]:
        """Ingest each agent's newly-finished dispatch spans and judge
        every installed SLO at the current virtual time."""
        now_ms = self.scheduler.clock.now_ms
        statuses: Dict[str, List[SloStatus]] = {}
        for agent in self.agents:
            engine = agent.slo_engine
            if engine is None:
                continue
            if not self._slo_observing:
                # No pipeline stream — rescan the tracer from the cursor.
                finished = agent.device.obs.tracer.finished_spans()
                engine.ingest_spans(finished[agent.slo_cursor:])
                agent.slo_cursor = len(finished)
            statuses[agent.profile.agent_id] = engine.evaluate(now_ms)
        return statuses

    def health_report(self, *, strict: bool = False) -> HealthReport:
        """The live fleet health console (``build_fleet(pipeline=...)``).

        Fuses the pipeline's sampling accounting and RED rollups with
        the admission and causal views recomputed from the *retained*
        spans (tail rules guarantee every shed/throttle/violation trace
        is in the ring), current SLO state when SLOs are installed, and
        the flight recorder's incident log when one is attached.
        """
        if self.pipeline is None:
            raise ValueError("build the fleet with pipeline= first")
        records = self.pipeline.retention.records()
        slo_statuses = None
        if any(agent.slo_engine is not None for agent in self.agents):
            slo_statuses = [
                status
                for statuses in self.evaluate_slos().values()
                for status in statuses
            ]
        return HealthReport.build(
            self.pipeline,
            admission=AdmissionReport.from_records(records),
            causal=CausalReport.from_records(records),
            slo_statuses=slo_statuses,
            flight_payload=(
                self.flight.to_dict() if self.flight is not None else None
            ),
            strict=strict,
        )

    def breached_slos(self) -> Dict[str, List[str]]:
        """Agents currently in breach (as of the last evaluation),
        mapped to the breached SLO names; clean agents are omitted."""
        out: Dict[str, List[str]] = {}
        for agent in self.agents:
            if agent.slo_engine is None:
                continue
            names = agent.slo_engine.breached()
            if names:
                out[agent.profile.agent_id] = names
        return out


def build_fleet(
    agent_count: int = 3,
    *,
    base_latitude: float = 28.6,
    base_longitude: float = 77.2,
    observability: bool = False,
    runtime: bool = False,
    flight_recorder: bool = False,
    shards: int = 2,
    queue_depth: int = 32,
    runtime_seed: int = 0,
    admission: Optional[AdmissionConfig] = None,
    distrib: Optional["DistribConfig"] = None,
    fault_plan: Optional["FaultPlan"] = None,
    pipeline: Optional[PipelineConfig] = None,
) -> Fleet:
    """Deploy ``agent_count`` Android agents on shared infrastructure.

    Agent *k* gets its own work site 5 km apart from the others and a
    staggered commute (each starts ``k × LEG_MS/4`` later), so proximity
    events interleave realistically on the shared clock.

    ``observability=True`` gives every agent handset a recording tracer
    (virtual-time stamps only), which :meth:`Fleet.install_slos` /
    :meth:`Fleet.evaluate_slos` build on.

    ``runtime=True`` attaches a :class:`ConcurrencyRuntime` on the
    fleet's scheduler (sharded dispatch, coalescing, cooperative agent
    tasks); drive it with :func:`launch_fleet_on_runtime`.

    ``admission=`` (requires ``runtime=True``) installs the adaptive
    admission plane on the runtime: each agent's submissions are charged
    to its own token-bucket tenant (``tenant=<agent-id>``), status polls
    shed before location reports under pressure, and throttle/shed
    storms surface as ``[fleet-alert] admission storm …`` lines.

    ``flight_recorder=True`` (requires ``runtime=True``) installs a
    :class:`~repro.obs.flight.FlightRecorder` plus a queue-depth /
    in-flight time-series sampler on the runtime's hub, shadows every
    agent handset's tracer into it (records tagged
    ``source=<agent-id>``), and surfaces each incident dump as a
    ``[fleet-alert]`` line from :meth:`Fleet.run_for`.

    ``distrib=`` (requires ``runtime=True``) mounts the distributed data
    tier on the runtime (see ``docs/DISTRIBUTION.md``): agents get home
    regions round-robin over ``distrib.regions``, successful location
    reports mirror into the replicated ``reports`` table at the agent's
    region, and the tier's idempotency store attaches to the shared SMS
    center and network so retried substrate writes are exactly-once.

    ``pipeline=`` (a :class:`~repro.obs.pipeline.PipelineConfig`;
    requires ``observability=True``) installs one fleet-wide
    :class:`~repro.obs.pipeline.TelemetryPipeline`: every agent
    handset's tracer drains into it tagged ``source=<agent-id>`` (plus
    the runtime hub's tracer as ``source=runtime`` when one exists),
    head sampling and tail keep rules bound retention, RED rollups
    aggregate every trace, and :meth:`Fleet.health_report` fuses it all.
    With ``pipeline.streaming`` the tracers stop retaining spans — the
    production-scale mode where telemetry memory is O(config).

    ``fault_plan=`` binds one :class:`~repro.faults.injector.FaultInjector`
    over the shared substrate (SMS center + network), so chaos scenarios
    can shake the whole fleet's infrastructure — not just one handset —
    with a single seeded plan.
    """
    if agent_count < 1:
        raise ValueError("a fleet needs at least one agent")
    if flight_recorder and not runtime:
        raise ValueError("flight_recorder=True requires runtime=True")
    if admission is not None and not runtime:
        raise ValueError("admission= requires runtime=True")
    if distrib is not None and not runtime:
        raise ValueError("distrib= requires runtime=True")
    if pipeline is not None and not observability:
        raise ValueError("pipeline= requires observability=True")
    scheduler = Scheduler(SimulatedClock())
    shared_bus = EventBus()
    injector = None
    if fault_plan is not None:
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(fault_plan, scheduler.clock)
    sms_center = SmsCenter(scheduler, shared_bus, injector=injector)
    network = SimulatedNetwork(scheduler, injector=injector)
    server = WorkforceServer(network)
    supervisor = MobileDevice(
        SUPERVISOR_NUMBER,
        sms_center=sms_center,
        network=network,
        scheduler=scheduler,
    )
    fleet = Fleet(scheduler=scheduler, server=server, supervisor=supervisor)
    if runtime:
        hub = Observability() if (observability or flight_recorder) else None
        fleet.runtime = ConcurrencyRuntime(
            scheduler,
            shards=shards,
            queue_depth=queue_depth,
            seed=runtime_seed,
            observability=hub,
            admission=admission,
            distrib=distrib,
        )
        if fleet.runtime.distrib is not None:
            tier = fleet.runtime.distrib
            tier.bind_injector(injector)
            # Substrate write sites share the tier's idempotency store so
            # dedup counters land in the runtime hub's metrics.
            sms_center.attach_idempotency(tier.idempotency)
            network.attach_idempotency(tier.idempotency)
        if flight_recorder:
            sampler = hub.install_sampler()
            sampler.track("runtime.queue_depth")
            sampler.track("runtime.inflight")
            if distrib is not None:
                # Per-region replication lag: every (table, region) label
                # set the causal tracker's gauge produces gets sampled.
                sampler.track("distrib.lag_ms")
            fleet.flight = hub.install_flight_recorder()
    for index in range(agent_count):
        site_centre = destination_point(
            base_latitude, base_longitude, bearing=360.0 * index / agent_count,
            distance_m=5_000.0 * (index + 1),
        )
        site = SiteRegion(
            site_id=f"site-{index + 1}",
            latitude=site_centre.latitude,
            longitude=site_centre.longitude,
            radius_m=500.0,
        )
        profile = AgentProfile(
            agent_id=f"agent-{index + 1}",
            phone_number=f"+91555100{index + 1}",
            supervisor_number=SUPERVISOR_NUMBER,
        )
        start_offset = index * LEG_MS / 4.0
        away = destination_point(
            site.latitude, site.longitude, bearing=90.0, distance_m=AWAY_DISTANCE_M
        )
        home = GeoPoint(site.latitude, site.longitude)
        device = MobileDevice(
            profile.phone_number,
            sms_center=sms_center,
            network=network,
            scheduler=scheduler,
            observability=Observability() if observability else None,
            trajectory=Trajectory(
                [
                    Waypoint(0.0, away),
                    Waypoint(start_offset + LEG_MS, home),
                    Waypoint(start_offset + 2 * LEG_MS, away),
                ]
            ),
            gps_seed=index,
        )
        platform = AndroidPlatform(device)
        platform.install(PACKAGE, ANDROID_PERMISSIONS)
        region = None
        if distrib is not None:
            region = distrib.regions[index % len(distrib.regions)]
        fleet.agents.append(
            FleetAgent(
                profile=profile,
                site=site,
                device=device,
                platform=platform,
                region=region,
            )
        )
    if fleet.flight is not None:
        for agent in fleet.agents:
            # Span ids are per-tracer, so tag each handset's records
            # with its agent id (attach is a no-op on no-op tracers).
            fleet.flight.attach(
                agent.device.obs.tracer, source=agent.profile.agent_id
            )
    if pipeline is not None:
        runtime_hub = fleet.runtime.observability if fleet.runtime else None
        fleet.pipeline = TelemetryPipeline(
            pipeline,
            metrics=runtime_hub.metrics if runtime_hub is not None else None,
        )
        if runtime_hub is not None:
            fleet.pipeline.attach(runtime_hub.tracer, source="runtime")
        for agent in fleet.agents:
            fleet.pipeline.attach(
                agent.device.obs.tracer, source=agent.profile.agent_id
            )
    return fleet


def launch_fleet(fleet: Fleet, *, resilience=None) -> None:
    """Start the proxied workforce app on every agent handset.

    ``resilience=`` passes through to each agent's proxy factory — a
    :class:`~repro.core.resilience.policy.ResiliencePolicy` applied to
    every interface, or a callable like
    :func:`~repro.core.resilience.policy.chaos_policy` invoked per
    interface name.
    """
    for agent in fleet.agents:
        config = WorkforceConfig(agent=agent.profile, site=agent.site)
        context = agent.platform.new_context(PACKAGE)
        agent.logic = launch_on_android(
            agent.platform, context, config, resilience=resilience
        )


def _agent_workload(
    fleet: Fleet,
    agent: FleetAgent,
    *,
    reports: int,
    period_ms: float,
) -> Iterator[object]:
    """One agent's cooperative reporting loop.

    Each cycle: sleep a period, take a (staleness-cached) location fix,
    POST it to the server through the agent's shard lane, then poll the
    shared status endpoint with a coalescable GET.  Failed HTTP calls
    are recorded as activity failure events — which ``Fleet.run_for``
    then escalates to the supervisor.
    """
    runtime = fleet.runtime
    logic = agent.logic
    agent_id = agent.profile.agent_id
    report_url = f"http://{SERVER_HOST}{PATH_REPORT_LOCATION}"
    status_url = f"http://{SERVER_HOST}{PATH_STATUS}"
    for _ in range(reports):
        yield period_ms
        fix = yield runtime.get_location(logic.location, tenant=agent_id)
        body = encode(
            {
                "agent": agent_id,
                "latitude": fix.latitude,
                "longitude": fix.longitude,
                "timestamp_ms": fix.timestamp_ms,
            }
        )
        report_future = runtime.submit_invocation(
            logic.http,
            "post",
            lambda body=body: logic.http.post(report_url, body),
            key=agent_id,
            tenant=agent_id,
        )
        # Issued concurrently with the report: since every agent polls at
        # the same instant, the fleet's status GETs coalesce in flight.
        status_future = runtime.http_get(logic.http, status_url, tenant=agent_id)
        result = yield report_future
        if not result.ok:
            logic.activity_events.append("report-failed")
        elif runtime.distrib is not None:
            # Mirror the acknowledged report into the replicated table at
            # the agent's home region; anti-entropy converges the other
            # regions on it (chaos suite asserts this post-heal).
            runtime.distrib.table("reports").put(
                agent_id,
                {
                    "latitude": fix.latitude,
                    "longitude": fix.longitude,
                    "timestamp_ms": fix.timestamp_ms,
                },
                region=agent.region or runtime.distrib.config.home_region,
            )
        status = yield status_future
        if not status.ok:
            logic.activity_events.append("status-failed")


def launch_fleet_on_runtime(
    fleet: Fleet,
    *,
    reports: int = 3,
    period_ms: float = 20_000.0,
    resilience=None,
) -> None:
    """Drive every agent's reporting loop through the concurrency runtime.

    Requires ``build_fleet(runtime=True)``.  Launches the proxied app
    first if needed (``resilience=`` passes through to
    :func:`launch_fleet`), then spawns one cooperative task per agent
    (FIFO tie-broken in agent order).  Advance with ``fleet.run_for``
    or ``fleet.runtime.drain()``.
    """
    if fleet.runtime is None:
        raise ValueError("build the fleet with runtime=True first")
    if any(agent.logic is None for agent in fleet.agents):
        launch_fleet(fleet, resilience=resilience)
    for agent in fleet.agents:
        agent.task = fleet.runtime.spawn(
            f"workload:{agent.profile.agent_id}",
            _agent_workload(fleet, agent, reports=reports, period_ms=period_ms),
        )
