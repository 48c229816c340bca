"""Smoke test of the repository benchmark at 1% scale.

One untraced and one traced ``--all`` run with the same seed must pass
every correctness check, emit exactly the names and units
``BENCHMARK.json`` declares, and agree on every workload's outcome
digest (the traced run also checks its own untraced and traced halves
against each other).  The A/B verdicts and the refusal to run without
the program are checked directly.
"""

import json
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import ROOT, load_benchmark
from benchmarks.e2e.compare import verdict

SMOKE = ["--all", "--seed", "3", "--seconds", "0", "--scale", "0.01"]


def _run(tmp_path, *extra):
    out = tmp_path / f"run{len(list(tmp_path.iterdir()))}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", *SMOKE, *extra, "--json", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    return json.loads(out.read_text())["workloads"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("e2e")
    return _run(tmp_path), _run(tmp_path, "--trace")


def test_workload_names_match_benchmark(runs):
    declared = [workload["name"] for workload in load_benchmark()["workloads"]]
    for results in runs:
        assert list(results) == declared


@pytest.mark.parametrize("mode,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_metric_names_and_units_match_benchmark(runs, mode, kind):
    declared = {metric["name"]: metric["unit"] for metric in load_benchmark()[kind]}
    for name, result in runs[mode].items():
        emitted = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
        assert emitted == declared, name
        for entry in result["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_correctness_checks_pass(runs):
    for results in runs:
        for name, result in results.items():
            assert result["correct"], (name, result["errors"])
            assert result["failed"] == 0
            assert result["attempted"] > 0


def test_same_seed_runs_agree_on_outcome_digest(runs):
    untraced, traced = runs
    for name in untraced:
        assert untraced[name]["digest"] == traced[name]["digest"], name


def test_every_entry_point_is_traced(runs):
    for name, result in runs[1].items():
        assert result["details"]["trace.missing_entry_points"][0] == 0, name


@pytest.mark.parametrize(
    "base,new,better,expected",
    [
        ([100.0] * 10, [120.0] * 10, "lower", "regression"),
        ([100.0] * 10, [120.0] * 10, "higher", "gain"),
        ([100.0, 101.0] * 5, [100.5, 100.4] * 5, "lower", "same"),
        ([80.0, 100.0, 120.0, 100.0] * 3, [100.0, 101.0, 99.0, 100.0] * 3, "lower",
         "unresolved"),
    ],
)
def test_compare_verdicts(base, new, better, expected):
    assert verdict(base, new, better, 0.1)["verdict"] == expected


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--workload", "fig10_calls",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
