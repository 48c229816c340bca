"""Static wall-clock lint over the whole middleware tree.

The simulation is virtual-time only: every latency, timeout, breaker
window and trace stamp is driven by ``SimulatedClock``.  Real-time reads
are allowed in exactly two places — the Figure-10 harness's real-time
measurement and the tracer's span profiling stamp — and each such line
must carry the ``# wall-clock: measurement`` pragma.  Everything else
under ``src/repro`` must not touch the wall clock, ever.

This is a tier-1 test (no marker): a wall-clock read anywhere else is a
determinism bug regardless of which suite notices first.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

PRAGMA = "# wall-clock: measurement"

#: The only files where pragma-tagged wall-clock reads are legitimate.
ALLOWLIST = frozenset(
    {
        "bench/harness.py",  # Figure 10: real-time cost of an invocation
        "obs/tracer.py",  # span profiling stamp (never drives simulation)
    }
)

FORBIDDEN = (
    (re.compile(r"\btime\.(time|monotonic|perf_counter|process_time)\("), "wall-clock read"),
    (re.compile(r"\btime\.sleep\("), "wall-clock sleep"),
    (re.compile(r"\btime\.(localtime|gmtime|ctime)\("), "wall-clock read"),
    (re.compile(r"\bdatetime\.(now|utcnow|today)\("), "wall-clock read"),
    (re.compile(r"\bdate\.today\("), "wall-clock read"),
)


def _sources():
    assert SRC.is_dir(), f"lint target vanished: {SRC}"
    return sorted(SRC.rglob("*.py"))


def _scan(path: pathlib.Path):
    """Yield ``(lineno, label, line)`` for each violation in one file."""
    relative = str(path.relative_to(SRC))
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        tagged = PRAGMA in line
        if tagged and relative in ALLOWLIST:
            continue  # the sanctioned measurement lines
        code = line.split("#", 1)[0]
        for pattern, label in FORBIDDEN:
            if pattern.search(code):
                yield lineno, label, line.strip()
                break
        else:
            if tagged:
                # A pragma outside the allowlist is someone trying to
                # smuggle a wall-clock site past this lint.
                yield lineno, "misplaced wall-clock pragma", line.strip()


class TestWallClockLint:
    def test_targets_exist(self):
        assert len(_sources()) > 100  # the whole middleware tree

    def test_allowlist_files_exist(self):
        for relative in ALLOWLIST:
            assert (SRC / relative).is_file(), f"allowlisted file vanished: {relative}"

    def test_allowlisted_files_actually_use_the_pragma(self):
        """The allowlist entries must stay honest: each must still
        contain at least one pragma-tagged measurement line."""
        for relative in ALLOWLIST:
            assert PRAGMA in (SRC / relative).read_text(), relative

    def test_no_wall_clock_anywhere(self):
        violations = []
        for path in _sources():
            for lineno, label, line in _scan(path):
                violations.append(
                    f"{path.relative_to(SRC)}:{lineno}: {label}: {line}"
                )
        assert not violations, "\n".join(violations)
