"""One workload phase in a fresh single-threaded process.

``python -m benchmarks.e2e.child --workload W --seed S --seconds T
--mode setup|run|trace [--scale X]`` builds the workload, prints
``ready`` on stdout the moment set-up ends (the parent times set-up from
process start to that line), then — unless ``--mode setup`` — runs timed
rounds until ``--seconds`` have passed and at least the workload's
digest rounds are done, and prints one JSON line with the results.

Times are kept twice: on the wall clock and on a
:class:`~benchmarks.e2e.reference.ReferenceClock` started first thing,
which converts them to reference units.  The JSON line carries both;
the parent reports the reference-unit values.

``--mode trace`` installs the layer wrappers before anything else is
imported, and writes the kept spans to ``TRACE_e2e_<workload>.jsonl``
at the repository root.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time


def _parse(argv):
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    from benchmarks.e2e.reference import ReferenceClock

    clock = ReferenceClock()
    wall_start = time.perf_counter()
    clock.start()
    try:
        result = _run(args, clock, wall_start)
    finally:
        clock.stop()
    print(json.dumps(result), flush=True)
    return 0


def _run(args, clock, wall_start: float) -> dict:
    from benchmarks.e2e import ROOT, use_source_tree

    use_source_tree()
    tracer = None
    if args.mode == "trace":
        from benchmarks.e2e.layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    from benchmarks.e2e.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    workload.clock = clock.now
    workload.setup()
    if tracer is not None:
        tracer.begin()
    # Set-up in both units, so the parent can convert its own timing.
    result = {"setup_wall_s": time.perf_counter() - wall_start, "setup_ref_s": clock.now()}
    print("ready", flush=True)
    if args.mode == "setup":
        return result

    rounds = []  # (wall seconds, reference seconds, operations) per round
    started = time.perf_counter()
    index = 0
    while True:
        wall_begin, ref_begin = time.perf_counter(), clock.now()
        ops = workload.run_round(index)
        ref_end, wall_end = clock.now(), time.perf_counter()
        rounds.append((wall_end - wall_begin, ref_end - ref_begin, ops))
        if tracer is not None:
            tracer.harvest()
            tracer.pause()
        workload.after_round(index)
        if tracer is not None:
            tracer.resume()
        index += 1
        if index == workload.min_rounds:
            # Memory after the fixed-work prefix: later rounds depend on
            # speed, and a program that keeps state per round would grow.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if index >= workload.min_rounds and time.perf_counter() - started >= args.seconds:
            break
    workload.finish()

    ops = sum(count for _, _, count in rounds)
    wall_s = sum(wall for wall, _, _ in rounds)
    ref_s = sum(ref for _, ref, _ in rounds)

    def op_p50_us(column: int) -> float:
        return statistics.median(
            times[column] * 1e6 / times[2] for times in rounds if times[2]
        )

    result.update(
        rounds=index,
        ops=ops,
        failed=workload.failed,
        errors=workload.errors,
        digest=workload.outcome_digest,
        ops_per_s=ops / ref_s,
        op_p50_us=op_p50_us(1),
        wall_ops_per_s=ops / wall_s,
        wall_op_p50_us=op_p50_us(0),
        peak_rss_mb=peak_rss_mb,
        kernel_ms=clock.median_sample() * 1e3,
        details=workload.details(),
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(ops, wall_s, ref_s / wall_s)
        result["missing"] = tracer.missing
        tracer.export_jsonl(ROOT / f"TRACE_e2e_{args.workload}.jsonl")
    return result


if __name__ == "__main__":
    sys.exit(main())
