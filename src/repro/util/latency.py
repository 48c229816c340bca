"""Parametric latency models for the simulated substrates.

Every native platform operation in the simulation draws a virtual-time
latency from a :class:`LatencyModel`.  For the Figure-10 reproduction the
models are *calibrated* to the paper's measured "without proxy" bars (see
``repro.bench.calibration``); elsewhere they default to plausible 2009-era
handset numbers.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class LatencyModel:
    """A Gaussian latency distribution per named operation.

    Models keep no per-draw state beyond their RNG: the module-level
    defaults (e.g. ``DEFAULT_ANDROID_LATENCY``) are shared by every world
    in a process, so anything they recorded per draw would grow forever.

    Parameters
    ----------
    mean_ms:
        Map of operation name to mean latency in virtual milliseconds.
    jitter_fraction:
        Standard deviation as a fraction of the mean.  Zero makes the
        model deterministic (the default for unit tests).
    seed:
        Seed for the private RNG; models with equal seeds and parameters
        draw identical sequences.
    default_ms:
        Latency for operations absent from ``mean_ms``.
    """

    mean_ms: Dict[str, float] = field(default_factory=dict)
    jitter_fraction: float = 0.0
    seed: Optional[int] = None
    default_ms: float = 1.0

    def __post_init__(self) -> None:
        if self.jitter_fraction < 0:
            raise ValueError(f"jitter_fraction must be >= 0, got {self.jitter_fraction}")
        if self.default_ms < 0:
            raise ValueError(f"default_ms must be >= 0, got {self.default_ms}")
        for op, mean in self.mean_ms.items():
            if mean < 0:
                raise ValueError(f"mean for {op!r} must be >= 0, got {mean}")
        self._rng = random.Random(self.seed)

    def mean_for(self, operation: str) -> float:
        """Mean latency configured for ``operation``."""
        return self.mean_ms.get(operation, self.default_ms)

    def draw(self, operation: str) -> float:
        """Draw a latency (>= 0) for ``operation``."""
        mean = self.mean_for(operation)
        if self.jitter_fraction == 0.0 or mean == 0.0:
            return mean
        return max(0.0, self._rng.gauss(mean, mean * self.jitter_fraction))

    def merged_with(self, overrides: Dict[str, float]) -> "LatencyModel":
        """A copy of this model with some operation means replaced."""
        merged = dict(self.mean_ms)
        merged.update(overrides)
        return LatencyModel(
            mean_ms=merged,
            jitter_fraction=self.jitter_fraction,
            seed=self.seed,
            default_ms=self.default_ms,
        )
