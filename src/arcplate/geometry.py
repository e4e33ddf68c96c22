"""Arc-over-plate geometry: sagitta, arc length, proximity-approximation validity.

Convention: the configured gap is the separation at the arc's center (y = 0),
which is the point farthest from the plate; the edges at |y| = half_span sit
closer by the sagitta. All lengths are SI meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import ContactViolationError, NonPositiveGapError, PfaViolationError

__all__ = [
    "ArcGeometry",
    "PfaReport",
    "PFA_WARN_RATIO",
    "PFA_FAIL_RATIO",
]

# Soft and hard thresholds on gap/radius for the proximity approximation.
PFA_WARN_RATIO = 0.05
PFA_FAIL_RATIO = 0.5


def _check_gap_ratio(gap: float, radius: float) -> None:
    if gap / radius >= 1.0:
        raise PfaViolationError(
            f"gap/radius = {gap / radius:.3g} >= 1; the local "
            "parallel-plate picture has no meaning here"
        )


@dataclass(frozen=True)
class PfaReport:
    """Validity report for the proximity approximation on one geometry."""

    ratio: float  # gap / radius
    status: Literal["pass", "warn", "fail"]
    contact_margin: float  # gap - sagitta, m; > 0 means no touch

    @property
    def hard_failure(self) -> bool:
        return self.status == "fail"


@dataclass(frozen=True)
class ArcGeometry:
    radius: float  # R, m
    half_span: float  # y_max, m; profile defined on [-y_max, +y_max]
    gap: float  # g, m; separation at the arc center, its farthest point

    def __post_init__(self) -> None:
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"radius must be positive and finite, got {self.radius}")
        if not (0.0 < self.half_span < self.radius):
            raise ValueError(
                f"half_span must lie in (0, radius), got {self.half_span} "
                f"with radius {self.radius}"
            )
        if not (self.gap > 0.0 and math.isfinite(self.gap)):
            raise NonPositiveGapError(f"gap must be positive, got {self.gap}")
        _check_gap_ratio(self.gap, self.radius)
        if self.gap <= self.sagitta:
            raise ContactViolationError(
                f"gap {self.gap:.6g} m does not clear the sagitta "
                f"{self.sagitta:.6g} m; the arc would touch the plate"
            )

    @property
    def sagitta(self) -> float:
        # y_max^2 / (R + sqrt(R^2 - y_max^2)): no cancellation for R >> y_max
        y = self.half_span
        return y * y / (self.radius + math.sqrt(self.radius * self.radius - y * y))

    def arc_length(self) -> float:
        """Arc length 2 R arcsin(y_max / R), m; independent of the gap."""
        return 2.0 * self.radius * math.asin(self.half_span / self.radius)

    def validate_pfa(self) -> PfaReport:
        """Gap/radius ratio against the warn (0.05) and fail (0.5) thresholds."""
        ratio = self.gap / self.radius
        if ratio >= PFA_FAIL_RATIO:
            status: Literal["pass", "warn", "fail"] = "fail"
        elif ratio > PFA_WARN_RATIO:
            status = "warn"
        else:
            status = "pass"
        return PfaReport(ratio=ratio, status=status, contact_margin=self.gap - self.sagitta)
