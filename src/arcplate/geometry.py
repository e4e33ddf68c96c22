"""Arc-over-plate geometry: sagitta, arc length, proximity-approximation validity.

Convention: the configured gap is the separation at the arc's center (y = 0),
which is the point farthest from the plate; the edges at |y| = half_span sit
closer by the sagitta. All lengths are SI meters. Frozen, the base of the
package's value types, lives here: every module that defines one imports this.
"""

from __future__ import annotations

import math
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


class Frozen:
    """Base of the package's value types. A subclass lists its fields in
    __slots__ and, for pattern matching and slotted subclasses, in
    __match_args__, and sets them through _set. Equality and hashing go over
    the fields in order, the repr is a dataclass's less the fields in _hidden,
    and assignment or deletion raises AttributeError. (A frozen dataclass
    takes about a millisecond to create and imports inspect and ast.)"""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _set(self, values: tuple) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    # copy and pickle restore the fields without running __init__'s checks again
    __getstate__, __setstate__ = _values, _set

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = [f"{name}={getattr(self, name)!r}" for name in self.__match_args__
                 if name not in self._hidden]
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__qualname__}.{name} is frozen")

    __delattr__ = __setattr__


def _check_gap_ratio(gap: float, radius: float) -> None:
    if gap / radius >= 1.0:
        raise PfaViolationError(
            f"gap/radius = {gap / radius:.3g} >= 1; the local "
            "parallel-plate picture has no meaning here"
        )


class PfaReport(Frozen):
    """Proximity-approximation validity of one geometry; contact_margin = gap - sagitta, m."""

    __slots__ = __match_args__ = ("ratio", "status", "contact_margin")

    def __init__(self, ratio: float, status: Literal["pass", "warn", "fail"],
                 contact_margin: float) -> None:
        self._set((ratio, status, contact_margin))

    @property
    def hard_failure(self) -> bool:
        return self.status == "fail"


class ArcGeometry(Frozen):
    __slots__ = __match_args__ = ("radius", "half_span", "gap")  # R, y_max, g (see above), m

    def __init__(self, radius: float, half_span: float, gap: float) -> None:
        self._set((radius, half_span, gap))
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
