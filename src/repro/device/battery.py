"""Battery model with per-operation drain accounting.

The substrates charge the battery for expensive operations (GPS fixes,
radio transmissions).  The model is an accounting device, not an
electro-chemical simulation: it lets tests assert that, e.g., the S60
polling-based location stack costs more energy than Android's event-driven
one — a real fragmentation consequence the proxies cannot hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.util.events import TypedSignal


@dataclass
class Battery:
    """A capacity counter in milliwatt-hours with a low-level signal."""

    capacity_mwh: float = 4_000.0
    level_mwh: float = 4_000.0
    low_threshold_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.capacity_mwh <= 0:
            raise ValueError("capacity must be positive")
        if not 0.0 < self.low_threshold_fraction < 1.0:
            raise ValueError("low threshold must be in (0, 1)")
        self.level_mwh = min(self.level_mwh, self.capacity_mwh)
        self.on_low = TypedSignal("battery-low")
        self._drain_by_op: Dict[str, float] = {}
        self._low_signalled = False

    @property
    def fraction(self) -> float:
        """Remaining charge as a fraction of capacity."""
        return self.level_mwh / self.capacity_mwh

    @property
    def is_low(self) -> bool:
        return self.fraction <= self.low_threshold_fraction

    @property
    def is_empty(self) -> bool:
        return self.level_mwh <= 0.0

    def drain(self, operation: str, amount_mwh: float) -> None:
        """Charge ``amount_mwh`` against ``operation`` (floors at empty)."""
        if amount_mwh < 0:
            raise ValueError("drain amount cannot be negative")
        # One pass per GPS fix: ``max(0.0, level)``, :attr:`fraction` and
        # :attr:`is_low`, inline.
        level = self.level_mwh - amount_mwh
        if not level > 0.0:
            level = 0.0
        self.level_mwh = level
        by_op = self._drain_by_op
        by_op[operation] = by_op.get(operation, 0.0) + amount_mwh
        fraction = level / self.capacity_mwh
        if fraction <= self.low_threshold_fraction and not self._low_signalled:
            self._low_signalled = True
            self.on_low.emit(fraction)

    def recharge(self) -> None:
        """Restore to full and re-arm the low-battery signal."""
        self.level_mwh = self.capacity_mwh
        self._low_signalled = False

    def drain_report(self) -> Dict[str, float]:
        """Total drain attributed to each operation so far."""
        return dict(self._drain_by_op)
