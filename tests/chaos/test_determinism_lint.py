"""Static determinism lint for the fault plane and resilience layer.

Reproducibility is a structural property of these packages, so it is
enforced structurally: no unseeded RNG construction and no module-level
``random.*`` draws (they share interpreter-global state).  The wall
clock is banned from all of ``src/repro`` by ``tests/test_wallclock_lint.py``.
"""

import pathlib
import re

import pytest

pytestmark = pytest.mark.chaos

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Packages whose behaviour must be a pure function of (plan, seed, clock).
DETERMINISTIC_PACKAGES = (SRC / "faults", SRC / "core" / "resilience", SRC / "obs")

FORBIDDEN = (
    # random.Random() with no seed argument
    (re.compile(r"random\.Random\(\s*\)"), "unseeded random.Random()"),
    # module-level draws from the global RNG
    (
        re.compile(r"random\.(random|randint|uniform|choice|shuffle|gauss)\("),
        "global-state random.* draw",
    ),
)


def _sources():
    for package in DETERMINISTIC_PACKAGES:
        assert package.is_dir(), f"lint target vanished: {package}"
        yield from sorted(package.rglob("*.py"))


class TestDeterminismLint:
    def test_targets_exist(self):
        assert len(list(_sources())) >= 6

    @pytest.mark.parametrize(
        "path", list(_sources()), ids=lambda p: str(p.relative_to(SRC))
    )
    def test_no_nondeterminism(self, path):
        text = path.read_text()
        violations = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0]
            for pattern, label in FORBIDDEN:
                if pattern.search(stripped):
                    violations.append(f"{path.name}:{lineno}: {label}: {line.strip()}")
        assert not violations, "\n".join(violations)
