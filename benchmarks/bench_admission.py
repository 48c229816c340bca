"""Admission-control benchmark: overload behaviour with and without the
adaptive plane.

Two load shapes drive one platform dispatcher, each run twice — once
with static bounded queues (the PR-4 baseline) and once with the full
admission plane (token buckets, priority shedding, overflow leveling,
shard autoscaler):

* **diurnal** — a slow arrival wave (commute → midday peak → evening)
  that exercises throttling at the crest and autoscaling both ways;
* **flash crowd** — a steady trickle interrupted by one thundering-herd
  instant of status polls arriving just before the agents' reports.

Every run is virtual-time only, so all headline numbers are
deterministic.  The acceptance claims checked here (and recorded in
``BENCH_admission.json``):

* with admission on, the flash crowd sheds **zero** report POSTs —
  priority eviction and the overflow buffer protect the higher class —
  while the static baseline door-sheds them;
* the flash crowd breaches the latency SLO **fewer** times with
  admission on than off (a shed counts as a breach: the work was lost);
* same-seed runs export byte-identical traces.

The benchmark also writes two profile-embedding BENCH documents
(``BENCH_admission_profile_base.json`` / ``..._plane.json``) from
identical proxied workloads with the plane absent vs installed-but-idle.
CI diffs them with the ProfileDiff ``--gate``: the admission fast path
must add zero *virtual* cost to the invocation path when it has nothing
to do.

Two seeded traces land next to them for the CI bench smoke's trace
analytics: ``TRACE_admission.jsonl``, the flash crowd with admission on
(its autoscaler resizes, so ``python -m repro.obs admission`` has
decisions to fold), and ``TRACE_admission_invocations.jsonl``, the
plane-absent proxied workload (five ``getLocation`` invocations for
``profile`` and ``slo``).
"""

import os

import pytest

from repro.bench.harness import format_table
from repro.bench.results import BenchResult, bench_output_dir, write_bench_result
from repro.obs import Observability, OverheadProfile
from repro.runtime import (
    AdmissionConfig,
    AutoscalerConfig,
    ConcurrencyRuntime,
    TokenBucketConfig,
)
from repro.util.clock import Scheduler, SimulatedClock

SERVICE_MS = 20.0
TICK_MS = 50.0
SLO_LATENCY_MS = 150.0
AGENTS = 4
QUEUE_DEPTH = 4

#: Polls per agent per tick across the diurnal day (the arrival wave).
DIURNAL_WAVE = (1, 1, 2, 2, 3, 4, 4, 4, 3, 2, 2, 1, 1, 1)
FLASH_TICKS = 16
FLASH_AT_TICK = 8
FLASH_POLLS = 40


def _admission_config(*, throttled: bool) -> AdmissionConfig:
    """The plane under test.  ``throttled=True`` adds tight per-tenant
    buckets (the diurnal crest must overflow them); the flash-crowd run
    disables buckets so the burst exercises eviction + leveling +
    autoscaling in isolation."""
    return AdmissionConfig(
        bucket=(
            TokenBucketConfig(rate_per_s=40.0, capacity=4.0)
            if throttled
            else None
        ),
        overflow_capacity=64,
        autoscaler=AutoscalerConfig(
            min_shards=1,
            max_shards=8,
            scale_up_depth=2.0,
            scale_down_depth=0.25,
            scale_down_utilization=0.5,
            hysteresis_ticks=2,
            cooldown_ms=100.0,
        ),
    )


class _Recorder:
    """Per-request latency / outcome bookkeeping for one run."""

    def __init__(self, clock):
        self.clock = clock
        self.completed = 0
        self.failed = 0
        self.breaches = 0
        self.shed_operations = []

    def watch(self, future, operation, submitted_ms):
        def on_done(done):
            if done.error is None:
                self.completed += 1
                if self.clock.now_ms - submitted_ms > SLO_LATENCY_MS:
                    self.breaches += 1
            else:
                self.failed += 1
                self.breaches += 1  # lost work can never meet its SLO
                if getattr(done.error, "error_code", None) == 1012:
                    self.shed_operations.append(operation)

        future.add_done_callback(on_done)


def run_scenario(shape: str, *, admission_on: bool, seed: int = 0):
    """Drive one load shape through one dispatcher; returns the stats."""
    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    config = (
        _admission_config(throttled=(shape == "diurnal"))
        if admission_on
        else None
    )
    runtime = ConcurrencyRuntime(
        scheduler,
        shards=2,
        queue_depth=QUEUE_DEPTH,
        seed=seed,
        observability=hub,
        admission=config,
    )
    clock = scheduler.clock
    dispatcher = runtime.dispatcher("bench")
    recorder = _Recorder(clock)

    def submit(operation, tenant):
        at = clock.now_ms
        future = dispatcher.submit(
            operation,
            lambda: clock.advance(SERVICE_MS),
            tracer=hub.tracer,
            tenant=tenant,
        )
        recorder.watch(future, operation, at)

    def agent_tick(tick, polls_per_agent, posts):
        for agent in range(AGENTS):
            tenant = f"agent-{agent + 1}"
            for _ in range(polls_per_agent):
                submit("get", tenant)
            if posts and tick % 2 == 0:
                submit("post", tenant)

    def arrivals():
        """The load shape as a cooperative task, so autoscaler control
        ticks ride the runtime's drain passes between arrival waves."""
        if shape == "diurnal":
            for tick, polls in enumerate(DIURNAL_WAVE):
                if tick:
                    yield TICK_MS
                agent_tick(tick, polls, True)
        elif shape == "flash":
            for tick in range(FLASH_TICKS):
                if tick:
                    yield TICK_MS
                if tick == FLASH_AT_TICK:
                    # The herd's polls land first, filling every queue —
                    # then the agents' reports arrive into the congestion.
                    for extra in range(FLASH_POLLS):
                        submit("get", f"agent-{extra % AGENTS + 1}")
                agent_tick(tick, 1, True)
        else:  # pragma: no cover - guarded by the parametrization
            raise ValueError(shape)

    start_ms = clock.now_ms
    runtime.spawn("arrivals", arrivals())
    runtime.drain()
    scalers = runtime.autoscalers()
    controller = dispatcher.admission
    return {
        "makespan_ms": clock.now_ms - start_ms,
        "outcomes": dispatcher.outcome_counts(),
        "completed": recorder.completed,
        "failed": recorder.failed,
        "slo_breaches": recorder.breaches,
        "post_sheds": recorder.shed_operations.count("post"),
        "get_sheds": recorder.shed_operations.count("get"),
        "final_shards": dispatcher.shards,
        "resizes": (
            list(scalers["bench"].resizes) if "bench" in scalers else []
        ),
        "storms": len(controller.storms) if controller is not None else 0,
        "trace": hub.export_jsonl(),
    }


MODES = (("static", False), ("admission", True))


@pytest.mark.parametrize("shape", ("diurnal", "flash"))
@pytest.mark.parametrize("mode,admission_on", MODES, ids=[m for m, _ in MODES])
def test_admission_scenarios(benchmark, shape, mode, admission_on):
    """Wall-clock harness cost of each scenario cell (the virtual-time
    assertions live in the summary test)."""
    result = benchmark(run_scenario, shape, admission_on=admission_on)
    # Unified accounting: every submission lands in exactly one outcome
    # bucket, and every outcome resolves the caller's future.
    total = sum(result["outcomes"].values())
    assert total == result["completed"] + result["failed"]


def test_admission_flash_crowd_summary():
    """The tentpole's acceptance: the flash crowd with admission on
    sheds zero report POSTs and breaches the SLO less than the static
    baseline."""
    rows = []
    results = {}
    for shape in ("diurnal", "flash"):
        for mode, admission_on in MODES:
            stats = run_scenario(shape, admission_on=admission_on)
            results[(shape, mode)] = stats
            outcomes = stats["outcomes"]
            rows.append(
                [
                    shape,
                    mode,
                    str(stats["completed"]),
                    str(outcomes["shed"]),
                    str(outcomes["throttled"]),
                    str(outcomes["absorbed"]),
                    str(stats["slo_breaches"]),
                    str(stats["post_sheds"]),
                    str(stats["final_shards"]),
                ]
            )
    print("\n\n=== Admission: load shapes, static vs adaptive ===")
    print(
        format_table(
            [
                "shape", "mode", "done", "shed", "throttled",
                "absorbed", "slo breach", "post sheds", "shards",
            ],
            rows,
        )
    )

    static = results[("flash", "static")]
    adaptive = results[("flash", "admission")]
    # The static baseline door-sheds the herd *and* the reports behind it.
    assert static["outcomes"]["shed"] > 0
    assert static["post_sheds"] > 0
    # Priority eviction + the overflow buffer protect every report.
    assert adaptive["post_sheds"] == 0
    # Lost + late work: strictly better under admission control.
    assert adaptive["slo_breaches"] < static["slo_breaches"]
    # The burst was absorbed, not rejected.
    assert adaptive["outcomes"]["absorbed"] > 0
    # The autoscaler answered the backlog with lanes.
    assert any(r["direction"] == "up" for r in adaptive["resizes"])

    diurnal = results[("diurnal", "admission")]
    # The crest overflows the per-tenant buckets: throttles, not sheds.
    assert diurnal["outcomes"]["throttled"] > 0
    assert diurnal["outcomes"]["shed"] == 0

    result = BenchResult(
        name="admission",
        params={
            "agents": AGENTS,
            "service_ms": SERVICE_MS,
            "queue_depth": QUEUE_DEPTH,
            "slo_latency_ms": SLO_LATENCY_MS,
            "flash_polls": FLASH_POLLS,
            "diurnal_wave": list(DIURNAL_WAVE),
        },
        metrics={
            f"{shape}_{mode}": {
                "makespan_ms": stats["makespan_ms"],
                "outcomes": stats["outcomes"],
                "completed": stats["completed"],
                "failed": stats["failed"],
                "slo_breaches": stats["slo_breaches"],
                "post_sheds": stats["post_sheds"],
                "get_sheds": stats["get_sheds"],
                "final_shards": stats["final_shards"],
                "resizes": stats["resizes"],
                "storms": stats["storms"],
            }
            for (shape, mode), stats in results.items()
        },
    )
    path = write_bench_result(
        result,
        include_measured=not os.environ.get("REPRO_BENCH_DETERMINISTIC"),
    )
    print(f"\nwrote {path}")
    _write_trace("TRACE_admission.jsonl", adaptive["trace"])


def _write_trace(name, text):
    """A smoke artifact next to the BENCH documents."""
    path = bench_output_dir() / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def test_admission_determinism():
    """Same seed, same shape → byte-identical trace exports, including
    autoscaler resize spans and shed/throttle events."""
    first = run_scenario("flash", admission_on=True, seed=11)
    second = run_scenario("flash", admission_on=True, seed=11)
    assert first["trace"] == second["trace"]
    assert first["resizes"] == second["resizes"]


# -- the fast-path profile gate ----------------------------------------------


def _profiled_invocations(admission):
    """N proxied getLocation calls through the runtime; returns the
    per-layer overhead profile of the resulting trace and its export."""
    from repro.apps.workforce import scenario
    from repro.core.proxies import create_proxy

    hub = Observability()
    sc = scenario.build_android(observability=hub)
    sc.platform.run_for(5_000.0)  # let the GPS produce a first fix
    proxy = create_proxy("Location", sc.platform)
    proxy.set_property("context", sc.new_context())
    proxy.set_property("provider", "gps")
    runtime = ConcurrencyRuntime(
        sc.device.scheduler,
        shards=2,
        queue_depth=16,
        observability=hub,
        admission=admission,
    )
    hub.tracer.reset()
    for _ in range(5):
        runtime.submit_invocation(proxy, "getLocation", proxy.get_location)
        runtime.drain()
    return OverheadProfile.from_spans(hub.tracer.finished_spans()), hub.export_jsonl()


def test_admission_fast_path_profile_gate():
    """The admission fast path is free in virtual time: the same proxied
    workload profiles identically with the plane absent vs installed but
    idle.  CI re-checks this with ``python -m repro.obs diff --gate``
    over the two BENCH documents written here."""
    base, base_trace = _profiled_invocations(None)
    idle_plane, _ = _profiled_invocations(
        AdmissionConfig(
            bucket=TokenBucketConfig(rate_per_s=10_000.0, capacity=10_000.0),
            overflow_capacity=64,
            autoscaler=None,  # resizing would change lane timing by design
        )
    )
    assert base.to_dict() == idle_plane.to_dict()
    for name, profile in (("base", base), ("plane", idle_plane)):
        doc = BenchResult(
            name=f"admission_profile_{name}",
            params={"invocations": 5},
            metrics={"profile": profile.to_dict()},
        )
        path = write_bench_result(doc, include_measured=False)
        print(f"\nwrote {path}")
    assert (bench_output_dir() / "BENCH_admission_profile_base.json").exists()
    _write_trace("TRACE_admission_invocations.jsonl", base_trace)
