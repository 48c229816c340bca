"""Static determinism lint over the whole middleware tree.

Reproducibility is a structural property of every package, so it is
enforced structurally: no unseeded RNG construction and no module-level
``random.*`` draws (they share interpreter-global state).  The wall
clock is banned from the same tree by ``tests/test_wallclock_lint.py``.
"""

import pathlib
import re

import pytest

pytestmark = pytest.mark.chaos

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

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
    assert SRC.is_dir(), f"lint target vanished: {SRC}"
    return sorted(SRC.rglob("*.py"))


class TestDeterminismLint:
    def test_targets_exist(self):
        assert len(_sources()) > 100  # the whole middleware tree

    @pytest.mark.parametrize(
        "path", _sources(), ids=lambda p: str(p.relative_to(SRC))
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
