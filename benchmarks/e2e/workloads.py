"""The four workloads.

Every workload is closed-loop and single-threaded: one caller issues
the next operation only after the previous one returned.  A workload is
a sequence of *rounds*; each round does the same kind of work on inputs
drawn from the seed, and the first :attr:`Workload.min_rounds` rounds
are always run, so the outcome digest covers identical work on every
run with that seed.  ``run_round`` is the timed part; ``after_round``
(checks, rebuilding worlds, digesting) and ``setup`` are not timed.

``scale`` shrinks every round for the smoke test; 1.0 is the benchmark.
A workload that times single operations reads :attr:`Workload.clock`,
which the child process points at its reference clock.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import statistics
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

from benchmarks.e2e import ROOT
from benchmarks.e2e.fig10 import APIS, PATHS, PLATFORMS, build_worlds
from repro.bench.calibration import PAPER_FIGURE_10
from repro.core.resilience import chaos_policy
from repro.distrib import DistribConfig
from repro.faults.plan import FaultPlan, FaultRule
from repro.obs import PipelineConfig
from repro.runtime import AdmissionConfig, AutoscalerConfig, TokenBucketConfig
from repro.scenario import ScenarioRecording

# Looked up through their modules at call time, so that the traced run's
# wrappers (which replace these module attributes) see the calls.
fleet = importlib.import_module("repro.apps.workforce.fleet")
scenario_replay = importlib.import_module("repro.scenario.replay")

RECORDINGS_DIR = ROOT / "tests" / "scenarios"


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, round(full * scale))


class Workload:
    """Base: the round protocol, correctness bookkeeping and digest."""

    name = ""
    min_rounds = 1

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        #: Seconds now; the child replaces it with reference-unit time.
        self.clock: Callable[[], float] = perf_counter
        self.failed = 0
        self.errors: List[str] = []
        self._digest = hashlib.sha256()

    def setup(self) -> None:
        """Build what the first timed round needs and warm it up."""

    def run_round(self, index: int) -> int:
        """One timed round; returns the operations it completed."""
        raise NotImplementedError

    def after_round(self, index: int) -> None:
        """Untimed: check the round's outputs and digest digest rounds."""

    def finish(self) -> None:
        """Untimed: final checks after the last round."""

    def details(self) -> Dict[str, Tuple[float, str]]:
        """Extra informational numbers (not declared metrics)."""
        return {}

    def check(self, condition: bool, message: str) -> None:
        if not condition and len(self.errors) < 20:
            self.errors.append(message)

    def digest(self, payload) -> None:
        self._digest.update(
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
        )

    @property
    def outcome_digest(self) -> str:
        return self._digest.hexdigest()


class Fig10Calls(Workload):
    """The paper's measurement: the Figure-10 calls, proxied and native,
    with the app's looper pumped between bursts."""

    name = "fig10_calls"
    #: Rounds per set of worlds: proxies keep invocation logs and the
    #: substrate keeps message logs, so worlds are rebuilt (untimed)
    #: to bound memory independently of how fast the rounds run.
    world_rounds = 1_000
    pump_ms = 1_000.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.world_rounds = _scaled(self.world_rounds, scale, 2)
        self.min_rounds = self.world_rounds
        #: (platform, path) → api → seconds of every timed call.
        self._bars: Dict[Tuple[str, str], Dict[str, array]] = {
            (platform, path): {api: array("d") for api in APIS}
            for platform in PLATFORMS
            for path in PATHS
        }
        self._virtual: List[tuple] = []
        self._expected = {
            (api, platform): PAPER_FIGURE_10[(api, platform)][0]
            for api in APIS
            for platform in PLATFORMS
        }

    def _new_worlds(self) -> None:
        self.worlds = build_worlds()
        for world in self.worlds:  # warm every call path once
            for path in PATHS:
                for api in APIS:
                    world.calls[path][api]()
                    if api == "addProximityAlert":
                        world.calls[path]["removeProximityAlert"]()
            world.scheduler.run_for(self.pump_ms)
        self.baselines = [world.registered_receivers() for world in self.worlds]

    def _draw_bursts(self) -> None:
        """The next round's input, drawn outside the timed round: per
        world, 1–4 seeded Figure-10 calls."""
        rng = self.rng
        self._bursts = [
            [rng.choice(APIS) for _ in range(rng.randint(1, 4))] for _ in self.worlds
        ]

    def setup(self) -> None:
        self._new_worlds()
        self._draw_bursts()

    def run_round(self, index: int) -> int:
        clock = self.clock
        virtual = self._virtual
        ops = 0
        for world, burst in zip(self.worlds, self._bursts):
            virtual_clock = world.scheduler.clock
            for path in PATHS:
                calls = world.calls[path]
                bars = self._bars[(world.platform, path)]
                for api in burst:
                    before_ms = virtual_clock.now_ms
                    start = clock()
                    try:
                        calls[api]()
                        end = clock()
                        charge = virtual_clock.now_ms - before_ms
                        if api == "addProximityAlert":
                            calls["removeProximityAlert"]()
                            ops += 1
                    except Exception as exc:  # native paths raise platform types
                        self.failed += 1
                        self.check(False, f"{world.platform}/{path}/{api} raised {exc!r}")
                        continue
                    bars[api].append(end - start)
                    ops += 1
                    virtual.append((world.platform, path, api, charge))
            world.scheduler.run_for(self.pump_ms)
        return ops

    def after_round(self, index: int) -> None:
        for platform, path, api, charge in self._virtual:
            expected = self._expected[(api, platform)]
            if abs(charge - expected) > 0.02 * expected:
                self.check(
                    False,
                    f"{api}/{platform}/{path} charged {charge:.3f} virtual ms, "
                    f"paper bar {expected}",
                )
        if index < self.min_rounds:
            self.digest([index, self._virtual])
        self._virtual.clear()
        if (index + 1) % self.world_rounds == 0:
            self._check_receivers()
            self._new_worlds()
        self._draw_bursts()

    def finish(self) -> None:
        self._check_receivers()

    def _check_receivers(self) -> None:
        for world, baseline in zip(self.worlds, self.baselines):
            count = world.registered_receivers()
            self.check(
                count == baseline,
                f"{world.platform}: {count} broadcast receivers left registered "
                f"(baseline {baseline}) after pumping the looper",
            )

    def details(self) -> Dict[str, Tuple[float, str]]:
        """The Figure-10 view: per-platform call medians on both paths, the
        p99 of every proxied call, and the overhead (median over the nine
        bars of proxied p50 minus native p50)."""
        bars = {
            (platform, path, api): sorted(values)
            for (platform, path), by_api in self._bars.items()
            for api, values in by_api.items()
        }
        if not all(bars.values()):
            return {}
        out: Dict[str, Tuple[float, str]] = {}
        for platform in PLATFORMS:
            for path, label in (("proxied", "call"), ("native", "native")):
                calls = sorted(
                    seconds for api in APIS for seconds in bars[(platform, path, api)]
                )
                out[f"{label}_p50_us.{platform}"] = (_quantile(calls, 0.5) * 1e6, "us")
        proxied = sorted(
            seconds
            for (_, path, _), values in bars.items()
            if path == "proxied"
            for seconds in values
        )
        out["call_p99_us"] = (_quantile(proxied, 0.99) * 1e6, "us")
        out["proxied_calls"] = (float(len(proxied)), "count")
        out["overhead_p50_us"] = (
            statistics.median(
                _quantile(bars[(platform, "proxied", api)], 0.5)
                - _quantile(bars[(platform, "native", api)], 0.5)
                for platform in PLATFORMS
                for api in APIS
            )
            * 1e6,
            "us",
        )
        return out


def _quantile(ordered, q: float) -> float:
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


#: The admission plane of fleet_runtime: per-agent token buckets, the
#: overflow buffer and the shard autoscaler.  Sized so that nothing is
#: throttled or shed: the workload measures the plane's cost on the
#: path, not rejections.
FLEET_ADMISSION = AdmissionConfig(
    bucket=TokenBucketConfig(rate_per_s=10.0, capacity=10.0),
    overflow_capacity=64,
    autoscaler=AutoscalerConfig(min_shards=2, max_shards=8),
)
FLEET_QUEUE_DEPTH = 128
DISTRIB_REGIONS = ("ap-south", "eu-west", "us-east")


class _FleetWorkload(Workload):
    """A round is one fleet: build, launch, drive to quiescence."""

    agents = 100
    reports = 30
    period_ms = 2_000.0

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.agents = _scaled(self.agents, scale, 2)
        self.reports = _scaled(self.reports, scale, 2)
        self.fleet = None

    def geometry(self) -> Dict[str, float]:
        """Seeded fleet placement.  The commute leg stays at the
        ``build_fleet`` default: its length sets how many proximity events
        a fleet sees, so varying it would vary the work per round between
        seeds."""
        rng = self.rng
        return {
            "base_latitude": 28.6 + rng.uniform(-1.0, 1.0),
            "base_longitude": 77.2 + rng.uniform(-1.0, 1.0),
        }

    def build(self, index: int, agents: int):
        raise NotImplementedError

    def launch(self, built, reports: int) -> None:
        fleet.launch_fleet_on_runtime(built, reports=reports, period_ms=self.period_ms)

    def _drive(self, index: int, agents: int, reports: int):
        built = self.build(index, agents)
        self.launch(built, reports)
        built.runtime.drain()
        return built

    def setup(self) -> None:
        warm = self._drive(-1, min(self.agents, 10), min(self.reports, 3))
        self._check_fleet(warm, min(self.reports, 3))

    def run_round(self, index: int) -> int:
        self.fleet = self._drive(index, self.agents, self.reports)
        return self.agents * self.reports * 3

    def after_round(self, index: int) -> None:
        outcome = self._check_fleet(self.fleet, self.reports)
        if index < self.min_rounds:
            self.digest([index, outcome])
        self.fleet = None

    def _check_fleet(self, built, reports: int) -> Dict[str, object]:
        report_counts = {}
        for agent in built.agents:
            agent_id = agent.profile.agent_id
            events = agent.logic.activity_events
            failures = [event for event in events if event in fleet.FAILURE_EVENTS]
            self.failed += len(failures)
            self.check(not failures, f"{agent_id}: failure events {failures}")
            self.check(
                agent.task.state == "done",
                f"{agent_id}: task ended {agent.task.state} ({agent.task.error!r})",
            )
            if agent.task.state != "done":
                self.failed += 1
            track = built.server.track_of(agent_id)
            count = 0 if track is None else track.report_count
            acknowledged = reports - events.count("report-failed")
            self.check(
                count == acknowledged,
                f"{agent_id}: server holds {count} reports, {acknowledged} acknowledged",
            )
            report_counts[agent_id] = count
        outcomes = {
            platform: dispatcher.outcome_counts()
            for platform, dispatcher in built.runtime.dispatchers().items()
        }
        for counts in outcomes.values():
            self.check(
                counts["shed"] == 0 and counts["throttled"] == 0,
                f"admission rejected work: {counts}",
            )
        return {
            "now_ms": built.scheduler.clock.now_ms,
            "reports": report_counts,
            "outcomes": outcomes,
        }


class FleetRuntime(_FleetWorkload):
    name = "fleet_runtime"

    def build(self, index: int, agents: int):
        return fleet.build_fleet(
            agents,
            runtime=True,
            admission=FLEET_ADMISSION,
            queue_depth=FLEET_QUEUE_DEPTH,
            runtime_seed=self.seed * 1_000 + index,
            **self.geometry(),
        )


class FleetDistrib(_FleetWorkload):
    name = "fleet_distrib"
    period_ms = 20_000.0
    #: Lost acks force retries that idempotency keys must absorb.  At 1%
    #: a call exhausting chaos_policy's four attempts (and so failing the
    #: run) is a one-in-10^8 event; at 5% it happened about once per 40
    #: fleets.
    ack_lost_rate = 0.01

    def build(self, index: int, agents: int):
        seed = self.seed * 1_000 + index
        return fleet.build_fleet(
            agents,
            runtime=True,
            observability=True,
            queue_depth=FLEET_QUEUE_DEPTH,
            runtime_seed=seed,
            distrib=DistribConfig(regions=DISTRIB_REGIONS, seed=seed),
            fault_plan=FaultPlan(
                seed=seed,
                rules=(FaultRule("network.request", "ack_lost", self.ack_lost_rate),),
            ),
            pipeline=PipelineConfig(default_rate=0.01, streaming=True, seed=seed),
            **self.geometry(),
        )

    def launch(self, built, reports: int) -> None:
        fleet.launch_fleet_on_runtime(
            built,
            reports=reports,
            period_ms=self.period_ms,
            resilience=chaos_policy("Http", seed=built.runtime.seed),
        )

    def _check_fleet(self, built, reports: int) -> Dict[str, object]:
        outcome = super()._check_fleet(built, reports)
        tier = built.runtime.distrib
        tier.heal_all()
        tier.run_until_converged()
        self.check(tier.converged, "replicas did not converge after heal_all()")
        self.check(tier.monitor.clean, f"causal violations: {tier.monitor.violations[:3]}")
        self.check(
            built.pipeline.tail_misses == 0,
            f"telemetry pipeline missed {built.pipeline.tail_misses} anomalous traces",
        )
        outcome["tier"] = hashlib.sha256(tier.export_json().encode()).hexdigest()
        outcome["telemetry"] = built.pipeline.accounting()
        return outcome


class ScenarioReplay(Workload):
    """A round replays every committed recording on every platform, in
    a seeded order; an operation is one replayed step."""

    passes = 10

    name = "scenario_replay"

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        self.min_rounds = _scaled(self.passes, scale, 1)

    def setup(self) -> None:
        paths = sorted(RECORDINGS_DIR.glob("*.jsonl"))
        if not paths:
            raise FileNotFoundError(f"no scenario recordings under {RECORDINGS_DIR}")
        self.recordings = [
            ScenarioRecording.parse(path.read_text(encoding="utf-8")) for path in paths
        ]
        self.pairs = [
            (recording, platform)
            for recording in self.recordings
            for platform in PLATFORMS
        ]
        self.results = []
        self._draw_order()
        self.run_round(-1)  # warm-up pass (untimed; called from setup)
        self.after_round(-1)

    def _draw_order(self) -> None:
        """The next round's input, drawn outside the timed round."""
        self._order = list(self.pairs)
        self.rng.shuffle(self._order)

    def run_round(self, index: int) -> int:
        ops = 0
        for recording, platform in self._order:
            self.results.append(scenario_replay.replay(recording, platform=platform))
            ops += len(recording.scenario.steps)
        return ops

    def after_round(self, index: int) -> None:
        for result in self.results:
            undeclared = result.diff.undeclared
            self.failed += len(undeclared)
            self.check(
                not undeclared,
                f"{result.base.scenario.name} on {result.replayed.platform}: "
                f"undeclared divergences {[d.step_id for d in undeclared][:5]}",
            )
            if 0 <= index < self.min_rounds:
                self.digest(
                    [
                        index,
                        result.replayed.platform,
                        hashlib.sha256(result.replayed.to_jsonl().encode()).hexdigest(),
                    ]
                )
        self.results = []
        self._draw_order()


WORKLOADS = {
    workload.name: workload
    for workload in (Fig10Calls, FleetRuntime, FleetDistrib, ScenarioReplay)
}
