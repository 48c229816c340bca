"""The repository benchmark: four closed-loop workloads, end-to-end
metrics from untraced runs and per-layer metrics from a traced run.

Run from the repository root::

    python3 -m benchmarks.e2e run --workload fig10_calls --seed 1
    python3 -m benchmarks.e2e run --all --seed 1 --trace
    python3 -m benchmarks.e2e compare --base A*.json --new B*.json

See ``README.md`` beside this file for the metrics, workloads and the
A/B recipe, and ``BENCHMARK.json`` at the root for the declared names
and bounds.
"""

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src"


def use_source_tree() -> None:
    """Import ``repro`` from the checkout's ``src/`` (there is no install
    step); fails loudly when the tree is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_benchmark() -> dict:
    """The declared workloads and metrics (``BENCHMARK.json``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
