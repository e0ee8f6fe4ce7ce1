"""What one measured run of a workload hands back."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class Outcome:
    """Results of one workload measurement.

    Attributes:
        metrics: End-to-end metrics by name (``setup_s`` and ``peak_rss_mb``
            are added by the caller).
        details: Workload-specific figures for the table and ``--out``.
        attempted: Points or requests attempted.
        failed: Of those, how many raised, broke a conservation check, or
            produced a record that differs from the reference digest.
        problems: One line per failure, for the log.
        digests: Canonical-record digests of the first cycle.
        cost_s: Median normalised seconds of one cycle (hostspeed.py); a
            traced run compares it with an untraced run's to price the tracing.
        cycles: Cycles completed; per-layer spans are divided by it.
    """

    metrics: Dict[str, float]
    details: Dict[str, Any]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)
    digests: Dict[str, str] = field(default_factory=dict)
    cost_s: float = 0.0
    cycles: int = 1
