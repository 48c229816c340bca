"""Command line: ``run`` (the default) and ``compare``.

``python -m benchmarks.e2e [run] (--workload NAME|all | --all) --seed S
[--seconds N] [--trace [0|1]] [--scale X] [--json OUT]`` runs each
workload in fresh single-threaded child processes (see
:mod:`benchmarks.e2e.child`):

* untraced (``--trace 0``): :data:`SETUP_SAMPLES` - 1 set-up-only
  children, then one measured child; ``setup_s`` is the median set-up
  time over all of them, the other metrics come from the measured child;
* traced (``--trace 1``): one untraced and one traced child, half the
  seconds each; the per-layer metrics come from the traced child and
  ``trace.overhead_frac`` from comparing the two.

It prints ``workload metric value unit`` per declared metric (``#``
lines are informational), then one JSON line: for a single workload
``{"correct", "attempted", "failed", "metrics"}`` with exactly the
declared metrics of that mode.  The exit code is 1 when a correctness
check failed.

``python -m benchmarks.e2e compare --base A.json... --new B.json...``
judges paired ``--json`` outputs; see :mod:`benchmarks.e2e.compare`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from benchmarks.e2e import ROOT, load_benchmark, use_source_tree

#: Set-up is timed this many times per untraced run (median reported).
SETUP_SAMPLES = 5
#: A child that has not finished this long after its budget is killed.
CHILD_GRACE_S = 120.0


def _spawn(
    workload: str, seed: int, seconds: float, scale: float, mode: str
) -> Tuple[float, dict]:
    """Run one child; returns (set-up seconds, its JSON result)."""
    command = [
        sys.executable, "-m", "benchmarks.e2e.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--scale", str(scale), "--mode", mode,
    ]
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, child.kill)
    watchdog.start()
    try:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - started
        output = child.stdout.read()
    finally:
        watchdog.cancel()
        child.stdout.close()
        child.wait()
    if child.returncode != 0 or ready.strip() != "ready":
        raise RuntimeError(
            f"{workload} ({mode}) child exited with {child.returncode}"
        )
    return setup_s, json.loads(output.strip().splitlines()[-1])


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, scale: float, benchmark: dict
) -> dict:
    """One workload in the requested mode: the fields of the last output
    line plus the digest, informational details and failed checks.  Times are reported in
    reference units (see :mod:`benchmarks.e2e.reference`)."""
    if trace:
        _, plain = _spawn(name, seed, seconds / 2, scale, "run")
        _, traced = _spawn(name, seed, seconds / 2, scale, "trace")
        children = [plain, traced]
        declared = benchmark["per_layer"]
        values = dict(traced["layers"])
        values["trace.overhead_frac"] = 1.0 - traced["ops_per_s"] / plain["ops_per_s"]
        details = {"trace.missing_entry_points": (len(traced["missing"]), "count")}
        for spec in traced["missing"]:
            print(f"{name}: warning: entry point not found: {spec}", file=sys.stderr)
    else:
        setups = [
            _spawn(name, seed, 0, scale, "setup") for _ in range(SETUP_SAMPLES - 1)
        ]
        setups.append(_spawn(name, seed, seconds, scale, "run"))
        measured = setups[-1][1]
        children = [measured]
        values = {
            # The parent's timing covers interpreter start-up too; the
            # child's own ratio converts it to reference units.
            "setup_s": statistics.median(
                setup_s * child["setup_ref_s"] / child["setup_wall_s"]
                for setup_s, child in setups
            ),
            "ops_per_s": measured["ops_per_s"],
            "op_p50_us": measured["op_p50_us"],
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        declared = benchmark["end_to_end"]
        details = dict(measured["details"])
        details.update(
            {
                "wall.setup_s": (statistics.median(s for s, _ in setups), "s"),
                "wall.ops_per_s": (measured["wall_ops_per_s"], "ops/s"),
                "wall.op_p50_us": (measured["wall_op_p50_us"], "us"),
                "kernel_ms": (measured["kernel_ms"], "ms"),
                "rounds": (measured["rounds"], "count"),
            }
        )
    errors = [error for child in children for error in child["errors"]]
    if trace and plain["digest"] != traced["digest"]:
        errors.append("tracing changed the outcome digest")
    failed = sum(child["failed"] for child in children)
    return {
        "correct": not errors,
        "attempted": sum(child["ops"] for child in children) + failed,
        "failed": failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        "digest": children[-1]["digest"],
        "details": details,
        "errors": errors,
    }


def _report(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
    for detail, (value, unit) in sorted(result["details"].items()):
        print(f"# {name} {detail} {value:.6g} {unit}")
    print(f"# {name} outcome_digest {result['digest']}")
    print(
        f"# {name} correct {str(result['correct']).lower()} "
        f"attempted {result['attempted']} failed {result['failed']}"
    )
    for error in result["errors"]:
        print(f"{name}: check failed: {error}", file=sys.stderr)


def run(args) -> int:
    benchmark = load_benchmark()
    known = [workload["name"] for workload in benchmark["workloads"]]
    names = known if args.workload == "all" else [args.workload]
    if any(name not in known for name in names):
        raise SystemExit(f"error: unknown workload {args.workload!r}; known: {known}")
    results: Dict[str, dict] = {}
    for name in names:
        results[name] = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.scale, benchmark
        )
        _report(name, results[name])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as out:
            json.dump(
                {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                 "workloads": results},
                out, indent=1,
            )
    if len(names) == 1:
        line = {
            key: results[names[0]][key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    else:
        line = {
            "correct": all(result["correct"] for result in results.values()),
            "attempted": sum(result["attempted"] for result in results.values()),
            "failed": sum(result["failed"] for result in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", help="a workload name, or all")
    which.add_argument("--all", dest="workload", action="store_const", const="all",
                       help="every workload, in BENCHMARK.json order")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1 (or the bare flag): per-layer metrics from a traced run")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every round (smoke runs); 1 is the benchmark")
    parser.add_argument("--json", help="also write every result to this file")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    if argv[:1] == ["run"]:
        argv = argv[1:]
    args = _parser().parse_args(argv)
    use_source_tree()
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
