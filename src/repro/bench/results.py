"""Machine-readable benchmark results: the ``BENCH_*.json`` trajectory.

Every benchmark that matters writes one :class:`BenchResult` per run so
the perf trajectory is a first-class, diffable artifact (see
``docs/PERFORMANCE.md``).  A result has two halves:

* ``metrics`` — **deterministic**, virtual-time-derived numbers (and
  the traced overhead profile).  Two identically-seeded runs serialize
  these byte-identically: no timestamps, no wall-clock anywhere.
* ``measured`` — wall-clock-derived numbers, timed by the benchmark
  files under ``benchmarks/`` (never by this package): per-bar
  Figure-10 medians, micro-benchmark timings.  Excluded by
  ``to_json(include_measured=False)`` and by the determinism tests.

The regression gate (``python -m repro.obs diff``) accepts a BENCH
document directly when its metrics embed a profile.
"""

from __future__ import annotations

import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

BENCH_SCHEMA = "repro.bench/v1"

#: Environment override for where ``BENCH_*.json`` files land
#: (default: the repo root when running from a checkout, else CWD).
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


def _round_floats(value: Any, digits: int = 6) -> Any:
    """Recursively round floats so serialized metrics are byte-stable."""
    if isinstance(value, float):
        return round(value, digits)
    if isinstance(value, dict):
        return {key: _round_floats(item, digits) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(item, digits) for item in value]
    return value


@dataclass
class BenchResult:
    """One benchmark run's machine-readable output."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    measured: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self, *, include_measured: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "schema": BENCH_SCHEMA,
            "name": self.name,
            "params": _round_floats(self.params),
            "metrics": _round_floats(self.metrics),
        }
        if include_measured:
            out["measured"] = _round_floats(self.measured)
        return out

    def to_json(self, *, include_measured: bool = True) -> str:
        return (
            json.dumps(
                self.to_dict(include_measured=include_measured),
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )

    @property
    def default_filename(self) -> str:
        return f"BENCH_{self.name}.json"


def _default_bench_dir() -> pathlib.Path:
    """The repo root when this module runs from a checkout (three levels
    above ``src/repro/bench/``, identified by its ``pyproject.toml``),
    so ``BENCH_*.json`` lands in one predictable place no matter which
    directory pytest was launched from; plain CWD otherwise."""
    root = pathlib.Path(__file__).resolve().parents[3]
    if (root / "pyproject.toml").is_file():
        return root
    return pathlib.Path(".")


def bench_output_dir() -> pathlib.Path:
    override = os.environ.get(BENCH_DIR_ENV)
    return pathlib.Path(override) if override else _default_bench_dir()


def write_bench_result(
    result: BenchResult,
    path: Optional[Union[str, pathlib.Path]] = None,
    *,
    include_measured: bool = True,
) -> pathlib.Path:
    """Serialize ``result`` (default: ``BENCH_<name>.json`` in the bench
    output dir) and return the written path."""
    target = pathlib.Path(path) if path is not None else (
        bench_output_dir() / result.default_filename
    )
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(result.to_json(include_measured=include_measured))
    return target


def read_bench_result(path: Union[str, pathlib.Path]) -> BenchResult:
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path} is not a {BENCH_SCHEMA} document")
    return BenchResult(
        name=payload["name"],
        params=payload.get("params", {}),
        metrics=payload.get("metrics", {}),
        measured=payload.get("measured", {}),
    )
