"""Digest agreement and the Figure-10 view of an A/B run.

``python3 -m benchmarks.ab_report --base ab/base-*.json --new ab/new-*.json``
reads the files ``python3 -m benchmarks.e2e run --all --json`` writes on
the two sides of an A/B (see ``benchmarks/e2e/README.md``) and prints:

* per workload and seed, whether the base and new ``outcome_digest``
  match: a change that claims only speed keeps every one;
* for ``fig10_calls``, each side's median over its runs of
  ``overhead_p50_us``, ``call_p50_us.<platform>`` (proxied) and
  ``native_p50_us.<platform>``, and the change between them.

Runs are paired by seed.  The exit status is 1 when a digest differs or
a seed has no counterpart, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Dict, List, Sequence

PLATFORMS = ("android", "s60", "webview")
FIGURE_10 = ("overhead_p50_us",) + tuple(
    f"{kind}_p50_us.{platform}" for kind in ("call", "native") for platform in PLATFORMS
)


def _load(paths: Sequence[str]) -> Dict[int, dict]:
    """seed → that run's workloads."""
    runs = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            run = json.load(handle)
        runs[run["seed"]] = run["workloads"]
    return runs


def digest_rows(base: Dict[int, dict], new: Dict[int, dict]) -> List[tuple]:
    """(workload, seed, base digest, new digest, verdict) per pair."""
    rows = []
    for seed in sorted(set(base) | set(new)):
        workloads = sorted(set(base.get(seed, {})) | set(new.get(seed, {})))
        for workload in workloads:
            digests = [
                side.get(seed, {}).get(workload, {}).get("digest")
                for side in (base, new)
            ]
            if None in digests:
                verdict = "missing"
            else:
                verdict = "match" if digests[0] == digests[1] else "DIFFER"
            rows.append((workload, seed, *digests, verdict))
    return rows


def figure10_rows(base: Dict[int, dict], new: Dict[int, dict]) -> List[tuple]:
    """(metric, base median, new median, change) for each Figure-10 number;
    empty when a side has no ``fig10_calls`` run."""
    sides = [
        [run["fig10_calls"]["details"] for run in side.values() if "fig10_calls" in run]
        for side in (base, new)
    ]
    if not all(sides):
        return []
    rows = []
    for metric in FIGURE_10:
        medians = [
            statistics.median(details[metric][0] for details in side) for side in sides
        ]
        rows.append((metric, *medians, (medians[1] - medians[0]) / medians[0]))
    return rows


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

    print(f"\nfig10_calls, medians over {len(base)} base / {len(new)} new runs")
    print(f"{'metric':24} {'base':>9} {'new':>9} {'change':>8}")
    for metric, base_median, new_median, change in figure10_rows(base, new):
        print(f"{metric:24} {base_median:9.2f} {new_median:9.2f} {change:+8.1%}")
    return 0 if all(row[-1] == "match" for row in digests) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
