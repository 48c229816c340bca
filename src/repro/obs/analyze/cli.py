"""``python -m repro.obs`` — trace analytics from the command line.

Ten subcommands, all operating on exported JSONL trace files (or,
for ``diff``, saved profile / BENCH documents; for ``flight``, a saved
flight-recorder document).  Every subcommand follows one convention: a
positional ``trace`` input plus ``--format {text,json}`` (``--json`` is
the shorthand), so scripts can pipe any analysis as JSON.

* ``profile`` — the Figure-10 per-layer overhead decomposition, with
  optional flamegraph collapsed stacks, a top-N self-time table, and a
  saveable deterministic JSON profile;
* ``slo`` — replay dispatch spans through an SLO engine and report
  attainment / breaches;
* ``diff`` — compare two profiles and run the perf-regression gate
  (report-only by default; ``--gate`` makes regressions exit non-zero);
* ``timeline`` — fold ``queue:<op>`` spans into per-shard Gantt
  timelines with a USE-style utilization/saturation summary;
* ``critical-path`` — the chain of lane segments that exactly explains
  a concurrent drain's makespan, with per-span slack;
* ``flight`` — render a flight-recorder incident document;
* ``admission`` — shed / throttle / autoscale breakdown from the
  admission plane's span events;
* ``causal`` — the one cross-region analyzer: the happens-before
  graph, visibility latency, convergence paths, saga decomposition,
  the causality-violation audit (``--gate`` fails on violations/cycles)
  and the tier tables (replication lag, gossip, partitions, dedup and
  saga outcomes);
* ``scenario`` — record/replay declarative cross-platform scenarios and
  diff recordings against the declared-divergence table (``--gate``
  fails on undeclared divergences; see ``docs/SCENARIOS.md``);
* ``health`` — the fleet health console: replay a trace through the
  telemetry pipeline and fuse sampling accounting, RED rollups, SLO
  state, admission outcomes, flight incidents and the causal audit into
  one report (``--gate`` fails on drops, overflows, tail misses,
  causal violations or SLO breaches).
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.obs.analyze.admission import AdmissionReport, render_admission_text
from repro.obs.analyze.causal import CausalReport, render_causal_text
from repro.obs.analyze.critical_path import CriticalPath
from repro.obs.analyze.diff import (
    DEFAULT_NOISE_FRAC,
    DEFAULT_NOISE_MS,
    diff_profiles,
    load_profile,
)
from repro.obs.analyze.overhead import (
    OverheadProfile,
    collapsed_stacks,
    parse_jsonl,
    render_profile_text,
    top_spans_text,
)
from repro.obs.analyze.slo import SloEngine, SloSpec
from repro.obs.flight import FlightRecorder, render_flight_text
from repro.obs.pipeline import HealthReport, PipelineConfig, render_health_text
from repro.obs.timeline import ShardTimelines

#: (name, one-line description) — single source for subparsers and --help.
COMMANDS: Tuple[Tuple[str, str], ...] = (
    ("profile", "per-layer overhead decomposition of a trace"),
    ("slo", "evaluate SLO specs over a trace's dispatch spans"),
    ("diff", "compare two profiles / traces; optional regression gate"),
    ("timeline", "per-shard Gantt timelines and USE summary from a trace"),
    ("critical-path", "the lane-segment chain explaining a drain's makespan"),
    ("flight", "render a saved flight-recorder incident document"),
    ("admission", "shed/throttle/autoscale breakdown from a trace"),
    ("causal", "cross-region happens-before graph, tier tables and audit"),
    ("scenario", "record/replay cross-platform scenarios; divergence gate"),
    ("health", "fleet health console over a trace; telemetry health gate"),
)


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _format_parent() -> argparse.ArgumentParser:
    """The shared output-format options every subcommand takes."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parent.add_argument(
        "--json", action="store_const", const="json", dest="format",
        help="shorthand for --format json",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    summary = "\n".join(f"  {name:<14} {text}" for name, text in COMMANDS)
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        description=(
            "Trace analytics over exported JSONL span files.\n\n"
            "commands:\n"
            f"{summary}\n\n"
            "Every command takes its input file as a positional argument and\n"
            "supports --format {text,json} (--json for short)."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)
    parent = _format_parent()
    helps = dict(COMMANDS)

    profile = commands.add_parser(
        "profile", help=helps["profile"], parents=[parent]
    )
    profile.add_argument("trace", help="JSONL trace export")
    profile.add_argument("--top", type=int, default=0, metavar="N",
                         help="also print the top-N spans by self-time")
    profile.add_argument("--flame", action="store_true",
                         help="print flamegraph collapsed stacks instead of the table")
    profile.add_argument("--out", metavar="PATH",
                         help="also save the JSON profile to PATH")

    slo = commands.add_parser("slo", help=helps["slo"], parents=[parent])
    slo.add_argument("trace", help="JSONL trace export")
    slo.add_argument(
        "--slo", action="append", required=True, metavar="SPEC", dest="specs",
        help="op:threshold_ms[:target[:window_ms[:platform]]] (repeatable)",
    )

    diff = commands.add_parser("diff", help=helps["diff"], parents=[parent])
    diff.add_argument("base", help="baseline trace JSONL, profile JSON, or BENCH json")
    diff.add_argument("new", help="candidate trace JSONL, profile JSON, or BENCH json")
    diff.add_argument("--noise-ms", type=float, default=DEFAULT_NOISE_MS)
    diff.add_argument("--noise-frac", type=float, default=DEFAULT_NOISE_FRAC)
    diff.add_argument("--gate", action="store_true",
                      help="exit 1 on regressions (default: report only)")

    timeline = commands.add_parser(
        "timeline", help=helps["timeline"], parents=[parent]
    )
    timeline.add_argument("trace", help="JSONL trace export")
    timeline.add_argument("--width", type=int, default=60, metavar="COLS",
                          help="Gantt cell columns (default: 60)")
    timeline.add_argument("--out", metavar="PATH",
                          help="also save the JSON timeline document to PATH")

    critical = commands.add_parser(
        "critical-path", help=helps["critical-path"], parents=[parent]
    )
    critical.add_argument("trace", help="JSONL trace export")
    critical.add_argument("--max-steps", type=int, default=40, metavar="N",
                          help="path steps to show before eliding (default: 40)")
    critical.add_argument("--out", metavar="PATH",
                          help="also save the JSON path document to PATH")

    flight = commands.add_parser(
        "flight", help=helps["flight"], parents=[parent]
    )
    flight.add_argument("trace", help="saved flight-recorder JSON document")

    admission = commands.add_parser(
        "admission", help=helps["admission"], parents=[parent]
    )
    admission.add_argument("trace", help="JSONL trace export")
    admission.add_argument("--out", metavar="PATH",
                           help="also save the JSON report to PATH")

    causal = commands.add_parser(
        "causal", help=helps["causal"], parents=[parent]
    )
    causal.add_argument("trace", help="JSONL trace export")
    causal.add_argument("--out", metavar="PATH",
                        help="also save the JSON report to PATH")
    causal.add_argument(
        "--gate", action="store_true",
        help="exit 1 on causal violations or a happens-before cycle",
    )

    scenario = commands.add_parser("scenario", help=helps["scenario"])
    actions = scenario.add_subparsers(dest="scenario_command", required=True)
    actions.add_parser(
        "list", help="list the bundled scenario library", parents=[parent]
    )
    sc_record = actions.add_parser(
        "record", help="record a scenario into a JSONL recording",
        parents=[parent],
    )
    sc_record.add_argument(
        "scenario", help="bundled scenario name or scenario JSON file"
    )
    sc_record.add_argument(
        "--platform", metavar="NAME", default=None,
        help="record on this platform (default: the scenario's own)",
    )
    sc_record.add_argument("--out", metavar="PATH",
                           help="write the JSONL recording to PATH")
    sc_replay = actions.add_parser(
        "replay", help="replay a recording on a platform and diff",
        parents=[parent],
    )
    sc_replay.add_argument("recording", help="JSONL scenario recording")
    sc_replay.add_argument(
        "--platform", metavar="NAME", default=None,
        help="replay on this platform (default: the recording's own)",
    )
    sc_replay.add_argument("--out", metavar="PATH",
                           help="also save the JSON diff document to PATH")
    sc_replay.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any undeclared divergence",
    )
    sc_diff = actions.add_parser(
        "diff", help="diff two recordings of the same scenario",
        parents=[parent],
    )
    sc_diff.add_argument("base", help="baseline JSONL scenario recording")
    sc_diff.add_argument("other", help="candidate JSONL scenario recording")
    sc_diff.add_argument("--out", metavar="PATH",
                         help="also save the JSON diff document to PATH")
    sc_diff.add_argument(
        "--gate", action="store_true",
        help="exit 1 on any undeclared divergence",
    )

    health = commands.add_parser(
        "health", help=helps["health"], parents=[parent]
    )
    health.add_argument("trace", help="JSONL trace export")
    health.add_argument(
        "--flight", metavar="PATH", default=None,
        help="also fold a saved flight-recorder JSON document in",
    )
    health.add_argument(
        "--slo", action="append", metavar="SPEC", dest="specs", default=[],
        help="op:threshold_ms[:target[:window_ms[:platform]]] (repeatable)",
    )
    health.add_argument(
        "--rate", type=float, default=1.0, metavar="R",
        help="head-sampling keep rate to replay at (default: 1.0)",
    )
    health.add_argument(
        "--rate-op", action="append", metavar="CLASS=R", dest="rate_ops",
        default=[], help="per-op-class rate override (repeatable)",
    )
    health.add_argument("--seed", type=int, default=0,
                        help="sampling seed (default: 0)")
    health.add_argument(
        "--retain", type=int, default=4096, metavar="N",
        help="retention ring capacity in spans (default: 4096)",
    )
    health.add_argument(
        "--max-series", type=int, default=64, metavar="N",
        help="rollup key-cardinality bound (default: 64)",
    )
    health.add_argument(
        "--max-metric-series", type=int, default=None, metavar="N",
        help="label-cardinality guard on the pipeline's metrics registry",
    )
    health.add_argument("--out", metavar="PATH",
                        help="also save the JSON health report to PATH")
    health.add_argument(
        "--gate", action="store_true",
        help="exit 1 on drops, overflows, tail misses, causal violations "
             "or SLO breaches",
    )
    health.add_argument(
        "--strict", action="store_true",
        help="with --gate, also fail on any anomalous trace at all",
    )
    return parser


def _cmd_profile(args: argparse.Namespace) -> int:
    records = parse_jsonl(_read(args.trace))
    profile = OverheadProfile.from_records(records)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(profile.to_json())
    if args.flame:
        print(collapsed_stacks(records))
    elif args.format == "json":
        print(profile.to_json(), end="")
    else:
        print(render_profile_text(profile))
    if args.top:
        print()
        print(top_spans_text(records, args.top))
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    specs = [SloSpec.parse(text) for text in args.specs]
    records = parse_jsonl(_read(args.trace))
    engine = SloEngine(specs)
    ingested = engine.ingest_records(records)
    last_t = max(
        (record["end_virtual_ms"] for record in records
         if record.get("end_virtual_ms") is not None),
        default=0.0,
    )
    statuses = engine.evaluate(last_t)
    if args.format == "json":
        print(json.dumps(
            {"ingested": ingested, "statuses": [s.to_dict() for s in statuses]},
            sort_keys=True, indent=2,
        ))
    else:
        print(f"{ingested} invocations ingested; evaluated at t={last_t:.1f}ms")
        for status in statuses:
            verdict = "BREACHED" if status.breached else "ok"
            print(
                f"  {status.spec.name}: {verdict} "
                f"attainment={status.attainment:.4f} (target {status.spec.target_ratio}) "
                f"errors={status.error_rate:.4f} (budget {status.spec.error_budget}) "
                f"n={status.window_count}"
            )
            for reason in status.reasons:
                print(f"    - {reason}")
    return 1 if any(status.breached for status in statuses) else 0


def _cmd_diff(args: argparse.Namespace) -> int:
    diff = diff_profiles(
        load_profile(args.base),
        load_profile(args.new),
        noise_ms=args.noise_ms,
        noise_frac=args.noise_frac,
    )
    if args.format == "json":
        print(json.dumps(diff.to_dict(), sort_keys=True, indent=2))
    else:
        print(diff.render_text())
    if args.gate and not diff.passed:
        return 1
    return 0


def _emit(
    args: argparse.Namespace, document: Any, render: Callable[[], str]
) -> None:
    """Save ``document.to_json()`` to ``--out`` when given, then print
    it (``--format json``) or ``render()`` (``--format text``)."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document.to_json())
    if args.format == "json":
        print(document.to_json(), end="")
    else:
        print(render())


def _cmd_timeline(args: argparse.Namespace) -> int:
    timelines = ShardTimelines.from_records(parse_jsonl(_read(args.trace)))
    _emit(args, timelines, lambda: timelines.render_text(width=args.width))
    return 0


def _cmd_critical_path(args: argparse.Namespace) -> int:
    path = CriticalPath.from_records(parse_jsonl(_read(args.trace)))
    _emit(args, path, lambda: path.render_text(max_steps=args.max_steps))
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    payload = FlightRecorder.parse(_read(args.trace))
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_flight_text(payload))
    return 0


def _cmd_admission(args: argparse.Namespace) -> int:
    report = AdmissionReport.from_records(parse_jsonl(_read(args.trace)))
    _emit(args, report, lambda: render_admission_text(report))
    return 0


def _cmd_causal(args: argparse.Namespace) -> int:
    report = CausalReport.from_records(parse_jsonl(_read(args.trace)))
    _emit(args, report, lambda: render_causal_text(report))
    if args.gate and (report.violations or not report.acyclic):
        return 1
    return 0


def _load_scenario(spec: str):
    """A bundled library name, or a path to a scenario JSON document."""
    import os

    from repro.scenario import LIBRARY, Scenario, build

    if spec in LIBRARY:
        return build(spec)
    if os.path.exists(spec):
        return Scenario.from_dict(json.loads(_read(spec)))
    raise SystemExit(
        f"unknown scenario {spec!r}: not a bundled name "
        f"({', '.join(sorted(LIBRARY))}) and not a file"
    )


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenario import (
        LIBRARY,
        ScenarioRecording,
        diff_recordings,
        replay,
    )
    from repro.scenario import record as record_scenario

    if args.scenario_command == "list":
        entries = [
            {"name": name, "platform": (s := LIBRARY[name]()).platform,
             "steps": len(s.steps), "description": s.description}
            for name in sorted(LIBRARY)
        ]
        if args.format == "json":
            print(json.dumps(entries, sort_keys=True, indent=2))
        else:
            for entry in entries:
                print(
                    f"{entry['name']:<18} {entry['platform']:<8} "
                    f"{entry['steps']:>2} steps  {entry['description']}"
                )
        return 0
    if args.scenario_command == "record":
        recording = record_scenario(
            _load_scenario(args.scenario), platform=args.platform
        )
        text = recording.to_jsonl()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(
                f"recorded {recording.scenario.name} on "
                f"{recording.platform}: {len(recording.outcomes)} outcomes "
                f"-> {args.out}"
            )
        else:
            print(text, end="")
        return 0
    if args.scenario_command == "replay":
        base = ScenarioRecording.parse(_read(args.recording))
        diff = replay(base, platform=args.platform).diff
    else:
        diff = diff_recordings(
            ScenarioRecording.parse(_read(args.base)),
            ScenarioRecording.parse(_read(args.other)),
        )
    _emit(args, diff, diff.render_text)
    return 1 if args.gate and not diff.passed else 0


def _cmd_health(args: argparse.Namespace) -> int:
    rates = {}
    for override in args.rate_ops:
        op, sep, rate = override.partition("=")
        if not sep:
            raise SystemExit(f"--rate-op must be CLASS=RATE, got {override!r}")
        rates[op] = float(rate)
    config = PipelineConfig(
        default_rate=args.rate,
        rates=rates,
        seed=args.seed,
        span_capacity=args.retain,
        max_series=args.max_series,
        max_metric_series=args.max_metric_series,
    )
    flight_payload = (
        FlightRecorder.parse(_read(args.flight)) if args.flight else None
    )
    report = HealthReport.from_records(
        parse_jsonl(_read(args.trace)),
        config=config,
        slo_specs=[SloSpec.parse(text) for text in args.specs],
        flight_payload=flight_payload,
        strict=args.strict,
    )
    _emit(args, report, lambda: render_health_text(report))
    if args.gate and not report.healthy:
        return 1
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    handlers = {
        "profile": _cmd_profile,
        "slo": _cmd_slo,
        "diff": _cmd_diff,
        "timeline": _cmd_timeline,
        "critical-path": _cmd_critical_path,
        "flight": _cmd_flight,
        "admission": _cmd_admission,
        "causal": _cmd_causal,
        "scenario": _cmd_scenario,
        "health": _cmd_health,
    }
    return handlers[args.command](args)
