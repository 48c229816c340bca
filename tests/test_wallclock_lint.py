"""Static wall-clock lint over the whole middleware tree.

The simulation is virtual-time only: every latency, timeout, breaker
window and trace stamp is driven by ``SimulatedClock``.  Nothing under
``src/repro`` may import ``time``, read the wall clock or sleep; the
program's wall-clock cost is timed from outside it, by the benchmarks
under ``benchmarks/``.

This is a tier-1 test (no marker): a wall-clock read anywhere is a
determinism bug regardless of which suite notices first.
"""

import pathlib
import re

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

FORBIDDEN = (
    (
        re.compile(r"^\s*import\s+([\w.]+(\s+as\s+\w+)?\s*,\s*)*time\b"),
        "wall-clock import",
    ),
    (re.compile(r"^\s*from\s+time\s+import\b"), "wall-clock import"),
    (
        re.compile(r"\btime\.(time|monotonic|perf_counter|process_time)(_ns)?\("),
        "wall-clock read",
    ),
    (re.compile(r"\btime\.sleep\("), "wall-clock sleep"),
    (re.compile(r"\btime\.(localtime|gmtime|ctime)\("), "wall-clock read"),
    (re.compile(r"datetime\.(now|utcnow|today)\("), "wall-clock read"),
    (re.compile(r"\bdate\.today\("), "wall-clock read"),
)


def _sources():
    assert SRC.is_dir(), f"lint target vanished: {SRC}"
    return sorted(SRC.rglob("*.py"))


def _scan(lines):
    """Yield ``(lineno, label, line)`` for each violation among ``lines``."""
    for lineno, line in enumerate(lines, start=1):
        code = line.split("#", 1)[0]
        for pattern, label in FORBIDDEN:
            if pattern.search(code):
                yield lineno, label, line.strip()
                break


class TestWallClockLint:
    def test_targets_exist(self):
        assert len(_sources()) > 100  # the whole middleware tree

    @pytest.mark.parametrize(
        "line",
        [
            "import time",
            "import os, time",
            "import time as clock",
            "    from time import perf_counter",
            "from time import (monotonic,",
        ],
        ids=str.strip,
    )
    def test_time_imports_rejected(self, line):
        assert [label for _, label, _ in _scan([line])] == ["wall-clock import"]

    @pytest.mark.parametrize(
        "line",
        [
            "from repro.obs import timeline",
            "import repro.obs.timeline",
            "runtime = time_budget()",
            "# import time",
        ],
    )
    def test_lookalikes_pass(self, line):
        assert not list(_scan([line]))

    def test_no_wall_clock_anywhere(self):
        violations = []
        for path in _sources():
            for lineno, label, line in _scan(path.read_text().splitlines()):
                violations.append(
                    f"{path.relative_to(SRC)}:{lineno}: {label}: {line}"
                )
        assert not violations, "\n".join(violations)
