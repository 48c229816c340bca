"""Digest agreement, the Figure-10 view and the per-layer view of an A/B run.

``python3 -m benchmarks.ab_report --base ab/base-*.json --new ab/new-*.json``
reads the files ``python3 -m benchmarks.e2e run --all --json`` writes on
the two sides of an A/B (see ``benchmarks/e2e/README.md``) and prints:

* per workload and seed, whether the base and new ``outcome_digest``
  match: a change that claims only speed keeps every one;
* from untraced runs, for ``fig10_calls``, each side's median over its
  runs of ``overhead_p50_us``, ``call_p50_us.<platform>`` (proxied) and
  ``native_p50_us.<platform>``, and the change between them;
* from ``--trace`` runs, for every workload and per-layer metric, each
  side's median over its runs and the change: where a saving appears.
  Metrics that read 0 on both sides are left out.

Runs are paired by seed, so give each seed once per side (traced and
untraced files of one seed go to separate invocations).  The exit status
is 1 when a digest differs or a seed has no counterpart, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence

PLATFORMS = ("android", "s60", "webview")
FIGURE_10 = ("overhead_p50_us",) + tuple(
    f"{kind}_p50_us.{platform}" for kind in ("call", "native") for platform in PLATFORMS
)


def _load(paths: Sequence[str]) -> Dict[int, dict]:
    """seed → that run's output (``trace`` and ``workloads``)."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        runs[run["seed"]] = run
    return runs


def _change(base: float, new: float) -> Optional[float]:
    return (new - base) / base if base else None


def digest_rows(base: Dict[int, dict], new: Dict[int, dict]) -> List[tuple]:
    """(workload, seed, base digest, new digest, verdict) per pair."""
    rows = []
    for seed in sorted(set(base) | set(new)):
        sides = [side.get(seed, {}).get("workloads", {}) for side in (base, new)]
        for workload in sorted(set(sides[0]) | set(sides[1])):
            digests = [side.get(workload, {}).get("digest") for side in sides]
            if None in digests:
                verdict = "missing"
            else:
                verdict = "match" if digests[0] == digests[1] else "DIFFER"
            rows.append((workload, seed, *digests, verdict))
    return rows


def figure10_rows(base: Dict[int, dict], new: Dict[int, dict]) -> List[tuple]:
    """(metric, base median, new median, change) for each Figure-10 number;
    empty when a side has no untraced ``fig10_calls`` run."""
    sides = [
        [
            run["workloads"]["fig10_calls"]["details"]
            for run in side.values()
            if not run.get("trace") and "fig10_calls" in run["workloads"]
        ]
        for side in (base, new)
    ]
    if not all(sides):
        return []
    rows = []
    for metric in FIGURE_10:
        medians = [
            statistics.median(details[metric][0] for details in side) for side in sides
        ]
        rows.append((metric, *medians, _change(*medians)))
    return rows


def layer_rows(base: Dict[int, dict], new: Dict[int, dict]) -> List[tuple]:
    """(workload, metric, unit, base median, new median, change) for each
    per-layer metric of the ``--trace`` runs, in their output order; empty
    when a side has no traced run."""
    sides = [
        [run["workloads"] for run in side.values() if run.get("trace")]
        for side in (base, new)
    ]
    if not all(sides):
        return []
    rows = []
    for workload, result in sides[0][0].items():
        if not all(workload in run for side in sides for run in side):
            continue
        for metric, entry in result["metrics"].items():
            medians = [
                statistics.median(
                    run[workload]["metrics"][metric]["value"] for run in side
                )
                for side in sides
            ]
            if any(medians):
                change = _change(*medians)
                rows.append((workload, metric, entry["unit"], *medians, change))
    return rows


def _percent(change: Optional[float]) -> str:
    return "-" if change is None else f"{change:+.1%}"


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.ab_report")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)

    digests = digest_rows(base, new)
    print(f"{'workload':16} {'seed':>4}  {'base digest':12} {'new digest':12}  verdict")
    for workload, seed, base_digest, new_digest, verdict in digests:
        print(
            f"{workload:16} {seed:>4}  {(base_digest or '-')[:12]:12} "
            f"{(new_digest or '-')[:12]:12}  {verdict}"
        )

    figure10 = figure10_rows(base, new)
    if figure10:
        print(f"\nfig10_calls, medians over {len(base)} base / {len(new)} new runs")
        print(f"{'metric':24} {'base':>9} {'new':>9} {'change':>8}")
        for metric, base_median, new_median, change in figure10:
            print(
                f"{metric:24} {base_median:9.2f} {new_median:9.2f} "
                f"{_percent(change):>8}"
            )

    layers = layer_rows(base, new)
    if layers:
        print(f"\nper-layer medians over {len(base)} base / {len(new)} new traced runs")
        print(
            f"{'workload':16} {'metric':42} {'unit':5} "
            f"{'base':>10} {'new':>10} {'change':>8}"
        )
        for workload, metric, unit, base_median, new_median, change in layers:
            print(
                f"{workload:16} {metric:42} {unit:5} {base_median:10.4g} "
                f"{new_median:10.4g} {_percent(change):>8}"
            )
    return 0 if all(row[-1] == "match" for row in digests) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
