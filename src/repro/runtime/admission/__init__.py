"""The adaptive admission-control plane.

PR 4's dispatcher had one static defense: a bounded per-shard queue
that sheds overflow with error 1012.  This package makes overload a
*policy* rather than an error path, composing four mechanisms the
dispatcher consults at submission and drain time:

* **token-bucket throttling** (:mod:`~repro.runtime.admission.bucket`,
  :mod:`~repro.runtime.admission.controller`) — per-tenant budgets on
  the virtual clock; over-budget submissions fail fast with the
  retryable 1013 (``retry_after_ms`` honoured by the resilience
  plane's backoff);
* **priority-aware shedding**
  (:mod:`~repro.runtime.admission.priority`) — operations have a
  class (status polls < report POSTs < SMS alerts); a full queue
  evicts the lowest class first instead of rejecting at the door;
* **queue-based load leveling**
  (:mod:`~repro.runtime.admission.leveling`) — a shared overflow
  buffer between a platform's shards absorbs bursts and drains into
  whichever lane idles first;
* **shard autoscaling** (:mod:`~repro.runtime.admission.autoscaler`)
  — a controller reads its dispatcher's queued and busy lanes each
  drain tick and resizes the dispatcher between bounds, with
  hysteresis and cooldown.

Everything runs on the virtual clock and is seeded-deterministic; the
whole plane is off by default (``ConcurrencyRuntime(admission=None)``),
in which case the dispatcher's fast path pays one ``None`` check.
See ``docs/ADMISSION.md`` for the operator view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.runtime.admission.autoscaler import AutoscalerConfig, ShardAutoscaler
from repro.runtime.admission.bucket import TokenBucket, TokenBucketConfig
from repro.runtime.admission.controller import (
    DEFAULT_TENANT,
    AdmissionController,
)
from repro.runtime.admission.leveling import OverflowBuffer
from repro.runtime.admission.priority import (
    DEFAULT_PRIORITY_MAP,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NAMES,
    PRIORITY_NORMAL,
    classify_operation,
    priority_name,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AutoscalerConfig",
    "DEFAULT_PRIORITY_MAP",
    "DEFAULT_TENANT",
    "OverflowBuffer",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NAMES",
    "PRIORITY_NORMAL",
    "ShardAutoscaler",
    "TokenBucket",
    "TokenBucketConfig",
    "classify_operation",
    "priority_name",
]


@dataclass(frozen=True)
class AdmissionConfig:
    """One deployment's admission policy (shared by every dispatcher).

    Every mechanism is individually optional: ``bucket=None`` disables
    throttling, ``overflow_capacity=0`` disables leveling,
    ``autoscaler=None`` pins the shard count.  The *default* config
    enables all four with conservative constants.
    """

    #: Per-tenant budget; ``None`` disables throttling.
    bucket: Optional[TokenBucketConfig] = field(
        default_factory=TokenBucketConfig
    )
    #: Shared overflow buffer bound per dispatcher (0 disables).
    overflow_capacity: int = 16
    #: Autoscaler control constants; ``None`` pins the shard count.
    autoscaler: Optional[AutoscalerConfig] = field(
        default_factory=AutoscalerConfig
    )

    def __post_init__(self) -> None:
        if type(self.overflow_capacity) is not int:
            raise ConfigurationError(
                f"overflow_capacity must be an int, got {self.overflow_capacity!r}"
            )
        if self.overflow_capacity < 0:
            raise ConfigurationError("overflow_capacity must be >= 0")
