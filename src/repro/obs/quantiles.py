"""Streaming quantile estimation: the P² algorithm.

The analytics layer needs p50/p95/p99 of invocation latency without
storing samples — the fleet scenarios run millions of virtual
invocations and the registry must stay O(1) per series.  The P²
(piecewise-parabolic) estimator of Jain & Chlamtac (CACM 1985) keeps
five markers per tracked quantile and updates them in constant time per
observation.

Determinism contract: the estimate is a pure function of the
observation *sequence* — no randomness, no clocks — so two
identically-seeded runs produce bit-identical quantile estimates.  For
fewer than five observations the exact order statistic is returned.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: The quantiles every latency stream tracks by default.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


def quantile_label(q: float) -> str:
    """``0.5 -> "p50"``, ``0.99 -> "p99"``, ``0.999 -> "p99.9"``."""
    scaled = q * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"p{int(round(scaled))}"
    return f"p{scaled:g}"


class P2Quantile:
    """One P² marker set estimating a single quantile.

    ``observe`` is O(1); ``value`` is the current estimate (exact while
    fewer than five observations have arrived, the P² interpolation
    afterwards).
    """

    __slots__ = ("q", "count", "_initial", "_heights", "_positions", "_desired", "_dn")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[int] = []
        self._desired: List[float] = []
        self._dn = (0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0)

    # -- recording -----------------------------------------------------------

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

        # The hot path of every histogram: the cell search, the position
        # and desired-position updates are unrolled and the parabolic and
        # linear predictions inlined.  Every float operation is the one
        # the textbook loop form performs, in the same order, so the
        # markers stay bit-identical to it.
        h, n, ns = self._heights, self._positions, self._desired
        # Locate the cell the new observation falls into, stretching the
        # extreme markers when it lands outside them; every marker above
        # the cell moves up one position.
        if value < h[0]:
            h[0] = value
            n[1] += 1
            n[2] += 1
            n[3] += 1
        elif value >= h[4]:
            h[4] = value
        elif value >= h[3]:
            pass
        elif value >= h[2]:
            n[3] += 1
        elif value >= h[1]:
            n[2] += 1
            n[3] += 1
        else:
            n[1] += 1
            n[2] += 1
            n[3] += 1
        n[4] += 1
        # Desired positions; marker 0's stays 0.0 (its increment is 0.0).
        dn = self._dn
        ns[1] += dn[1]
        ns[2] += dn[2]
        ns[3] += dn[3]
        ns[4] += dn[4]
        # Nudge the three interior markers toward their desired positions.
        for i in (1, 2, 3):
            drift = ns[i] - n[i]
            if drift >= 1.0:
                if n[i + 1] - n[i] <= 1:
                    continue
                step = 1
            elif drift <= -1.0:
                if n[i - 1] - n[i] >= -1:
                    continue
                step = -1
            else:
                continue
            h_lo, h_i, h_hi = h[i - 1], h[i], h[i + 1]
            n_lo, n_i, n_hi = n[i - 1], n[i], n[i + 1]
            # Piecewise-parabolic prediction ...
            candidate = h_i + step / (n_hi - n_lo) * (
                (n_i - n_lo + step) * (h_hi - h_i) / (n_hi - n_i)
                + (n_hi - n_i - step) * (h_i - h_lo) / (n_i - n_lo)
            )
            if h_lo < candidate < h_hi:
                h[i] = candidate
            # ... falling back to linear toward the neighbour in ``step``.
            elif step == 1:
                h[i] = h_i + step * (h_hi - h_i) / (n_hi - n_i)
            else:
                h[i] = h_i + step * (h_lo - h_i) / (n_lo - n_i)
            n[i] = n_i + step

    # -- reading -------------------------------------------------------------

    @property
    def value(self) -> float:
        """The current estimate (0.0 before any observation)."""
        if self.count == 0:
            return 0.0
        if self.count <= 5:
            ordered = sorted(self._initial)
            rank = max(0, min(len(ordered) - 1, math.ceil(self.q * len(ordered)) - 1))
            return ordered[rank]
        return self._heights[2]


class StreamingPercentiles:
    """A bundle of P² estimators fed from one observation stream."""

    __slots__ = ("quantiles", "_estimators", "count", "sum", "max")

    def __init__(self, quantiles: Sequence[float] = DEFAULT_QUANTILES) -> None:
        if not quantiles:
            raise ConfigurationError("at least one quantile is required")
        self.quantiles = tuple(quantiles)
        self._estimators = [P2Quantile(q) for q in self.quantiles]
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value > self.max or self.count == 1:
            self.max = value
        for estimator in self._estimators:
            estimator.observe(value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def value(self, q: float) -> float:
        for estimator in self._estimators:
            if estimator.q == q:
                return estimator.value
        raise ConfigurationError(f"quantile {q} is not tracked")

    def as_dict(self) -> Dict[str, float]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` (current estimates)."""
        return {
            quantile_label(estimator.q): estimator.value
            for estimator in self._estimators
        }
