"""P² against its loop-form reference: bit-identical markers on any stream.

``P2Quantile.observe`` is unrolled and inlined for the histogram hot
path.  ``LoopP2`` below is the textbook loop form it replaced, kept as
the reference: both must hold exactly equal (``==``, not approximately)
heights, positions, desired positions and estimates after every stream.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.quantiles import P2Quantile

pytestmark = pytest.mark.obs

QUANTILES = (0.01, 0.25, 0.5, 0.95, 0.99)


class LoopP2(P2Quantile):
    """The loop-form P² update (Jain & Chlamtac), the reference."""

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if self.count <= 5:
            self._initial.append(value)
            if self.count == 5:
                self._heights = sorted(self._initial)
                self._positions = [0, 1, 2, 3, 4]
                q = self.q
                self._desired = [0.0, 2.0 * q, 4.0 * q, 2.0 + 2.0 * q, 4.0]
            return

        h, n, ns = self._heights, self._positions, self._desired
        if value < h[0]:
            h[0] = value
            cell = 0
        elif value >= h[4]:
            h[4] = value
            cell = 3
        else:
            cell = 0
            for i in range(3, 0, -1):
                if value >= h[i]:
                    cell = i
                    break
        for i in range(cell + 1, 5):
            n[i] += 1
        for i in range(5):
            ns[i] += self._dn[i]
        for i in (1, 2, 3):
            drift = ns[i] - n[i]
            if (drift >= 1.0 and n[i + 1] - n[i] > 1) or (
                drift <= -1.0 and n[i - 1] - n[i] < -1
            ):
                step = 1 if drift > 0 else -1
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: int) -> float:
        h, n = self._heights, self._positions
        return h[i] + step * (h[i + step] - h[i]) / (n[i + step] - n[i])


def assert_identical(stream, q):
    fast, reference = P2Quantile(q), LoopP2(q)
    for value in stream:
        fast.observe(value)
        reference.observe(value)
        assert fast._heights == reference._heights
        assert fast._positions == reference._positions
    assert fast._desired == reference._desired
    assert fast.count == reference.count
    assert fast.value == reference.value


def _seeded(kind, seed, size=2_000):
    rng = random.Random(seed)
    if kind == "gaussian":
        return [rng.gauss(50.0, 12.0) for _ in range(size)]
    if kind == "exponential":
        return [rng.expovariate(0.02) for _ in range(size)]
    if kind == "ties":
        return [rng.choice((1.0, 2.0, 2.0, 5.0)) for _ in range(size)]
    if kind == "constant":
        return [24.8] * size
    if kind == "increasing":
        return [float(i) for i in range(size)]
    if kind == "decreasing":
        return [float(size - i) for i in range(size)]
    raise AssertionError(kind)


@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize(
    "kind", ["gaussian", "exponential", "ties", "constant", "increasing", "decreasing"]
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_seeded_streams_match_the_reference(kind, seed, q):
    assert_identical(_seeded(kind, seed), q)


@pytest.mark.parametrize("q", QUANTILES)
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_short_streams_match_the_reference(size, q):
    assert_identical(_seeded("gaussian", size)[:size], q)


FINITE = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    stream=st.one_of(
        st.lists(FINITE, max_size=300),
        st.lists(st.sampled_from([0.0, 1.0, 1.5, 100.0]), max_size=300),
        st.lists(st.integers(-3, 3).map(float), max_size=300),
        st.lists(FINITE, min_size=1, max_size=300).map(sorted),
    ),
    q=st.sampled_from(QUANTILES),
)
def test_generated_streams_match_the_reference(stream, q):
    assert_identical(stream, q)
