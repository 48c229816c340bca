"""Concurrency runtime benchmark: throughput and queue latency vs shards.

A fixed batch of identical requests (constant virtual service cost) is
submitted to one platform dispatcher and drained; the whole experiment
runs in virtual time, so every number here is deterministic.  The sweep
doubles the shard count and checks the scaling claim the runtime makes:
shard lanes overlap in virtual time, so makespan ≈ total work / shards —
8 shards must clear the batch at least 3× faster than 1 (it is 8× for
this uniform load; the floor leaves room for less convenient workloads).

Queue latency percentiles come from the dispatcher's own
``runtime.queue_wait_ms`` histogram (interpolated from its buckets and
clamped to the observed min and max), i.e. the same series operators
would watch in production — the benchmark doubles as a check that the
instrumentation tells the truth about queueing: each shard count's p99
must equal the exact p99 of its uniform schedule.

Since the concurrency-observability layer landed, every load run also
exports its trace and folds it back through the shard-timeline and
critical-path analyzers: ``BENCH_concurrency.json`` carries per-shard
utilization and the run/wait makespan decomposition, the timeline and
flight documents are written next to it as artifacts, and the benchmark
asserts the headline analyzer property — the critical path's virtual
durations sum *exactly* to the drain makespan — plus byte-identical
exports across two identically-seeded runs.

Writes ``BENCH_concurrency.json`` (schema in docs/PERFORMANCE.md):
virtual throughput/latency under ``metrics``; wall-clock harness cost
under ``measured``.
"""

import os
import time

import pytest

from repro.bench.harness import format_table
from repro.bench.results import BenchResult, bench_output_dir, write_bench_result
from repro.obs import CriticalPath, Observability, ShardTimelines
from repro.runtime import ConcurrencyRuntime

SHARD_COUNTS = (1, 2, 4, 8)
REQUESTS = 64
SERVICE_MS = 10.0


def run_load(
    shards: int,
    *,
    requests: int = REQUESTS,
    service_ms: float = SERVICE_MS,
    seed: int = 0,
):
    """Submit ``requests`` uniform jobs to a ``shards``-lane dispatcher
    and drain; returns the virtual makespan and queue-wait percentiles."""
    from repro.util.clock import Scheduler, SimulatedClock

    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    runtime = ConcurrencyRuntime(
        scheduler,
        shards=shards,
        queue_depth=requests,  # admission control is not under test here
        seed=seed,
        observability=hub,
    )
    clock = scheduler.clock
    dispatcher = runtime.dispatcher("bench")
    start_ms = clock.now_ms
    futures = [
        dispatcher.submit(
            "work", lambda: clock.advance(service_ms), tracer=hub.tracer
        )
        for _ in range(requests)
    ]
    runtime.drain()
    makespan_ms = clock.now_ms - start_ms
    assert all(future.done() and future.error is None for future in futures)
    wait = hub.metrics.histogram("runtime.queue_wait_ms", source="bench")
    timelines = ShardTimelines.from_spans(hub.tracer.finished_spans())
    path = CriticalPath.from_timelines(timelines)
    return {
        "makespan_ms": makespan_ms,
        "throughput_per_s": requests / makespan_ms * 1_000.0,
        "queue_wait": wait.percentiles(),
        "shed": dispatcher.shed_count,
        "per_shard": dispatcher.executed_per_shard(),
        "utilization": timelines.utilization_by_lane(),
        "critical_path": {
            "run_ms": path.run_ms,
            "wait_ms": path.wait_ms,
            "work_ms": path.work_ms,
            "parallelism": round(path.parallelism, 6),
        },
        "timelines": timelines,
        "path": path,
        "trace": hub.export_jsonl(),
    }


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_concurrency_throughput(benchmark, shards):
    """Wall-clock cost of simulating the batch (the model itself is free
    of real sleeps; this times the dispatcher machinery)."""
    result = benchmark(run_load, shards)
    assert result["shed"] == 0
    assert sum(result["per_shard"]) == REQUESTS


def test_concurrency_scaling_summary():
    """The headline claim: ≥3× throughput at 8 shards vs 1."""
    wall: dict = {}
    results = {}
    for shards in SHARD_COUNTS:
        before = time.perf_counter()  # wall-clock: measurement
        results[shards] = run_load(shards)
        wall[shards] = (time.perf_counter() - before) * 1_000.0  # wall-clock: measurement

    headers = ["shards", "makespan ms", "req/s", "wait p50", "wait p95", "wait p99"]
    rows = [
        [
            str(shards),
            f"{r['makespan_ms']:.1f}",
            f"{r['throughput_per_s']:.1f}",
            f"{r['queue_wait']['p50']:.1f}",
            f"{r['queue_wait']['p95']:.1f}",
            f"{r['queue_wait']['p99']:.1f}",
        ]
        for shards, r in results.items()
    ]
    print("\n\n=== Concurrency: uniform batch vs shard count ===")
    print(format_table(headers, rows))

    # Uniform load on K lanes: makespan is exactly work/K.
    for shards, r in results.items():
        assert r["makespan_ms"] == pytest.approx(REQUESTS * SERVICE_MS / shards)
    # The analyzer's acceptance property: the critical path's step
    # durations tile the drain window, so they sum *exactly* to the
    # measured makespan — run + wait explains every virtual millisecond.
    for shards, r in results.items():
        path = r["path"]
        assert path.total_ms == pytest.approx(r["makespan_ms"], abs=1e-9)
        assert path.run_ms + path.wait_ms == pytest.approx(
            r["makespan_ms"], abs=1e-9
        )
        # Uniform batch: every lane is fully packed from t0.
        assert r["critical_path"]["wait_ms"] == pytest.approx(0.0, abs=1e-9)
        assert len(r["utilization"]) == shards
        for fraction in r["utilization"].values():
            assert fraction == pytest.approx(1.0)
    # Each lane runs its REQUESTS/K requests back to back, so the waits
    # are 0, 10, ... ms; the nearest-rank p99 of 64 waits is the longest.
    for shards, r in results.items():
        assert r["queue_wait"]["p99"] == pytest.approx(
            (REQUESTS // shards - 1) * SERVICE_MS
        )
    # The acceptance floor: ≥3× throughput at 8 shards vs 1.
    speedup = results[1]["makespan_ms"] / results[8]["makespan_ms"]
    assert speedup >= 3.0, f"8-shard speedup only {speedup:.2f}x"
    # More lanes never queue longer.
    for lo, hi in zip(SHARD_COUNTS, SHARD_COUNTS[1:]):
        assert (
            results[hi]["queue_wait"]["p95"] <= results[lo]["queue_wait"]["p95"]
        )

    result = BenchResult(
        name="concurrency",
        params={
            "requests": REQUESTS,
            "service_ms": SERVICE_MS,
            "shard_counts": list(SHARD_COUNTS),
        },
        metrics={
            "makespan_ms": {
                str(shards): r["makespan_ms"] for shards, r in results.items()
            },
            "throughput_per_s": {
                str(shards): r["throughput_per_s"] for shards, r in results.items()
            },
            "queue_wait_ms": {
                str(shards): r["queue_wait"] for shards, r in results.items()
            },
            "utilization": {
                str(shards): r["utilization"] for shards, r in results.items()
            },
            "critical_path": {
                str(shards): r["critical_path"] for shards, r in results.items()
            },
            "speedup_8_vs_1": speedup,
        },
        measured={"harness_wall_ms": {str(k): v for k, v in wall.items()}},
    )
    path = write_bench_result(
        result,
        include_measured=not os.environ.get("REPRO_BENCH_DETERMINISTIC"),
    )
    print(f"\nwrote {path}")

    # Companion artifacts for the CI bench smoke: the 8-shard run's
    # trace and the timeline and critical-path documents folded from it,
    # next to the BENCH json.
    out_dir = bench_output_dir()
    widest = results[SHARD_COUNTS[-1]]
    for name, text in (
        ("TRACE_concurrency.jsonl", widest["trace"]),
        ("TIMELINE_concurrency.json", widest["timelines"].to_json()),
        ("CRITICAL_PATH_concurrency.json", widest["path"].to_json()),
    ):
        (out_dir / name).write_text(text, encoding="utf-8")
        print(f"wrote {out_dir / name}")


def test_concurrency_observability_determinism():
    """Two identically-seeded load runs export byte-identical traces,
    timelines and critical paths — the analyzers add no nondeterminism."""
    first = run_load(4, seed=7)
    second = run_load(4, seed=7)
    assert first["trace"] == second["trace"]
    assert first["timelines"].to_json() == second["timelines"].to_json()
    assert first["path"].to_json() == second["path"].to_json()


def run_overload(*, requests: int = 32, queue_depth: int = 4, seed: int = 0):
    """Submit a burst far past admission capacity with the full
    concurrency-observability stack installed; returns (hub, flight)."""
    from repro.util.clock import Scheduler, SimulatedClock

    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    sampler = hub.install_sampler()
    sampler.track("runtime.queue_depth")
    sampler.track("runtime.inflight")
    flight = hub.install_flight_recorder()
    runtime = ConcurrencyRuntime(
        scheduler,
        shards=2,
        queue_depth=queue_depth,
        seed=seed,
        observability=hub,
    )
    clock = scheduler.clock
    dispatcher = runtime.dispatcher("bench")
    for _ in range(requests):
        dispatcher.submit(
            "work", lambda: clock.advance(SERVICE_MS), tracer=hub.tracer
        )
    runtime.drain()
    return hub, flight


def test_concurrency_overload_flight_artifact():
    """An overload burst produces exactly one cooldown-collapsed flight
    dump; the document is deterministic and saved as a bench artifact."""
    hub, flight = run_overload()
    # The burst lands in one virtual instant, before any lane starts
    # executing: each of the 2 lanes accepts queue_depth requests and
    # sheds the rest — one dump for the burst, the remainder suppressed.
    accepted = 2 * 4
    assert flight.triggered == 1
    dump = flight.last_dump
    assert dump is not None
    assert dump["reason"] == "queue.shed"
    assert dump["suppressed"] == 32 - accepted - 1
    assert any(event["name"] == "queue.shed" for event in dump["events"])
    assert any(
        sample["metric"] == "runtime.queue_depth" for sample in dump["samples"]
    )
    _, again = run_overload()
    assert flight.to_json() == again.to_json()

    out_path = bench_output_dir() / "FLIGHT_concurrency.json"
    out_path.write_text(flight.to_json(), encoding="utf-8")
    print(f"\nwrote {out_path}")


def test_concurrency_coalescing_savings():
    """Coalesced idempotent reads cost one execution for N submissions."""
    from repro.util.clock import Scheduler, SimulatedClock

    scheduler = Scheduler(SimulatedClock())
    runtime = ConcurrencyRuntime(scheduler, shards=2, queue_depth=REQUESTS)
    clock = scheduler.clock
    executions = []
    dispatcher = runtime.dispatcher("bench")
    futures = [
        dispatcher.submit(
            "get",
            lambda: (executions.append(clock.now_ms), clock.advance(SERVICE_MS))[0],
            coalesce_key="GET:/status",
        )
        for _ in range(16)
    ]
    runtime.drain()
    assert len(executions) == 1
    assert dispatcher.coalesced_count == 15
    assert all(future.done() and future.error is None for future in futures)
