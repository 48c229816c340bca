#!/usr/bin/env python
"""Concurrency observability: shard timelines, the critical path, metric
time-series, and the flight recorder.

Drives a sharded dispatcher with a handful of cooperative agents — one
of which crashes, and one of which floods the queue hard enough to shed
— then prints every concurrency-observability view the trace supports:

* the per-shard Gantt timeline with its USE summary,
* the critical path that exactly explains the drain's makespan,
* the sampled ``runtime.queue_depth`` / ``runtime.inflight`` series,
* the flight-recorder dumps the crash and the shed burst triggered.

Everything runs on the virtual clock, so the output is byte-identical
on every run.

Run:  python examples/runtime_timeline.py
"""

from repro.obs import CriticalPath, Observability, ShardTimelines
from repro.runtime import ConcurrencyRuntime
from repro.util.clock import Scheduler, SimulatedClock


def main():
    scheduler = Scheduler(SimulatedClock())
    hub = Observability()
    sampler = hub.install_sampler()
    sampler.track("runtime.queue_depth")
    sampler.track("runtime.inflight")
    flight = hub.install_flight_recorder()

    runtime = ConcurrencyRuntime(
        scheduler, shards=2, queue_depth=3, seed=7, observability=hub
    )
    dispatcher = runtime.dispatcher("android")

    def field_agent(start_ms, legs):
        def workload():
            yield start_ms
            for charge_ms in legs:
                yield dispatcher.submit(
                    "report",
                    lambda c=charge_ms: scheduler.clock.advance(c),
                    tracer=hub.tracer,
                )
                yield 5.0

        return workload()

    def flooding_agent():
        yield 40.0
        futures = [
            dispatcher.submit(
                "poll",
                lambda: scheduler.clock.advance(2.0),
                tracer=hub.tracer,
            )
            for _ in range(12)
        ]
        for future in futures:
            try:
                yield future
            except Exception:
                pass  # shed requests fail fast; the recorder saw them

    def doomed_agent():
        yield 60.0
        raise RuntimeError("firmware panic")

    runtime.spawn("courier-1", field_agent(0.0, [10.0, 15.0]))
    runtime.spawn("courier-2", field_agent(0.0, [12.0, 8.0]))
    runtime.spawn("courier-3", field_agent(20.0, [20.0]))
    runtime.spawn("status-poller", flooding_agent())
    runtime.spawn("doomed", doomed_agent())
    runtime.drain()

    timelines = ShardTimelines.from_spans(hub.tracer.finished_spans())
    path = CriticalPath.from_timelines(timelines)

    print("== Per-shard timeline ==")
    print(timelines.render_text(width=60))

    print("\n== Critical path ==")
    print(path.render_text(max_steps=12))

    print("\n== Sampled metric time-series ==")
    print(sampler.render_text())

    print("\n== Flight recorder ==")
    for dump in flight.dumps:
        print(
            f"  dump #{dump['sequence']}: {dump['reason']} "
            f"@{dump['t_virtual_ms']:.1f}ms "
            f"(+{dump['suppressed']} suppressed, "
            f"{len(dump['spans'])} spans, {len(dump['events'])} events)"
        )


if __name__ == "__main__":
    main()
