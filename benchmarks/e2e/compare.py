"""Paired A/B judgement over ``run --json`` outputs.

``python -m benchmarks.e2e compare --base B1.json ... --new N1.json ...``
pairs the i-th base file with the i-th new file (run them alternately,
base first in odd pairs and new first in even pairs, with identical
benchmark code and settings).  For every workload and end-to-end metric
it prints each side's median and quartiles and a verdict:

* ``regression`` — the new median is worse than the base median by more
  than the metric's bound in ``BENCHMARK.json``;
* ``gain`` — the new side wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ by more than the base quartile
  distance;
* ``unresolved`` — neither, but either side's spread (quartile distance
  over median) is wider than the bound and not every new run beats
  every base run, so "no change" cannot be told from noise;
* ``same`` otherwise.

A gain needs at least :data:`MIN_PAIRS` pairs.  The exit code is 1 when
any metric regressed or a run failed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Dict, List, Sequence

from benchmarks.e2e import load_benchmark

MIN_PAIRS = 10


def _quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> Dict[str, object]:
    """Judge one metric of one workload from paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    base_q, new_q = _quartiles(base), _quartiles(new)
    base_median, new_median = statistics.median(base), statistics.median(new)
    wins = sum(1 for b, n in zip(base, new) if sign * (n - b) > 0)
    losses = sum(1 for b, n in zip(base, new) if sign * (n - b) < 0)
    worse_by = -sign * (new_median - base_median) / base_median
    spread = max(
        (base_q[2] - base_q[0]) / base_median, (new_q[2] - new_q[0]) / new_median
    )
    every_run_better = all(sign * (n - b) > 0 for n in new for b in base)
    if worse_by > bound:
        outcome = "regression"
    elif (
        len(base) >= MIN_PAIRS
        and wins >= 0.9 * len(base)
        and sign * (new_median - base_median) > base_q[2] - base_q[0]
    ):
        outcome = "gain"
    elif spread > bound and not every_run_better:
        outcome = "unresolved"
    else:
        outcome = "same"
    return {
        "base": [base_q[0], base_median, base_q[2]],
        "new": [new_q[0], new_median, new_q[2]],
        "change": (new_median - base_median) / base_median,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "verdict": outcome,
    }


def _load(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle)["workloads"])
    return runs


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    if len(args.base) != len(args.new):
        raise SystemExit("error: --base and --new need the same number of runs")
    base_runs, new_runs = _load(args.base), _load(args.new)
    metrics = load_benchmark()["end_to_end"]
    status = 0
    print(
        f"{'workload':16} {'metric':12} {'base q1/med/q3':>32} "
        f"{'new q1/med/q3':>32} {'change':>8} {'wins':>7}  verdict"
    )
    workloads = [
        name for name in base_runs[0] if all(name in run for run in base_runs + new_runs)
    ]
    for workload in workloads:
        if not all(run[workload]["correct"] for run in base_runs + new_runs):
            print(f"{workload}: a run failed its correctness checks")
            status = 1
        for metric in metrics:
            name = metric["name"]
            judged = verdict(
                [run[workload]["metrics"][name]["value"] for run in base_runs],
                [run[workload]["metrics"][name]["value"] for run in new_runs],
                metric["better"],
                metric["bound"],
            )
            if judged["verdict"] == "regression":
                status = 1
            base = "/".join(f"{value:.4g}" for value in judged["base"])
            new = "/".join(f"{value:.4g}" for value in judged["new"])
            print(
                f"{workload:16} {name:12} {base:>32} {new:>32} "
                f"{judged['change']:+8.2%} {judged['wins']:>3}/{judged['pairs']:<3}  "
                f"{judged['verdict']}"
            )
    return status
