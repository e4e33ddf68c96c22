"""Arc-over-plate geometry: sagitta, arc integrals, arc length, proximity validity.

Convention: the configured gap is the separation at the arc's center (y = 0),
which is the point farthest from the plate; the edges at |y| = half_span sit
closer by the sagitta. All lengths are SI meters. Frozen, the base of the
package's value types, lives here: every module that defines one imports this.
"""

from __future__ import annotations

import math
from typing import Literal

from .errors import (ContactViolationError, NonFiniteResultError, NonPositiveGapError,
                     PfaViolationError)

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
    """The terms of the arc integrals that do not depend on the gap (the
    sagitta, T = tan(theta_max/2), 1 + T^2 and atanh T) are derived once, on
    construction and on restoring a copy or pickle; _integrals(gap) does the
    rest, so one geometry serves a whole sweep."""

    # R, y_max, g (see above), m; then the derived terms, set by _derive
    __slots__ = ("radius", "half_span", "gap", "sagitta", "_t", "_one_plus_t2", "_atanh_t")
    __match_args__ = __slots__[:3]

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
        self._derive()
        if not math.isfinite(self.sagitta):  # R^2 and y_max^2 both overflowed
            raise NonFiniteResultError(f"sagitta at radius {self.radius} m, half-span "
                                       f"{self.half_span} m out of double range")
        if self.gap <= self.sagitta:
            raise ContactViolationError(
                f"gap {self.gap:.6g} m does not clear the sagitta "
                f"{self.sagitta:.6g} m; the arc would touch the plate"
            )

    def __setstate__(self, state: tuple) -> None:
        self._set(state)
        self._derive()

    def _derive(self) -> None:
        R, Y = self.radius, self.half_span
        root = R + math.sqrt(R * R - Y * Y)
        T = Y / root
        # sagitta y_max^2 / (R + sqrt(R^2 - y_max^2)): no cancellation for R >> y_max
        terms = (Y * Y / root, T, 1.0 + T * T, math.atanh(T))
        for name, value in zip(ArcGeometry.__slots__[3:], terms, strict=True):
            object.__setattr__(self, name, value)

    def _integrals(self, g: float) -> tuple[float, float]:
        """(I0, I1): I0 = integral 1/psi^3 and I1 = integral psi'^2/psi^3
        over the span at gap g, in 1/m^2. Every model's energy is linear in
        them. g is the geometry's gap or a larger one, so that it clears the
        plate.

        With y = R sin(theta), t = tan(theta/2) and B = (2R - g)/g,
        psi = g (1 - B t^2)/(1 + t^2) and both integrands are rational in t
        on [0, T]:

            I0 = (4R/g^3) integral (1 - t^4) / (1 - B t^2)^3 dt
            I1 = (4R/g^3) integral 4 t^2 (1 + t^2) / ((1 - t^2)(1 - B t^2)^3) dt

        Their partial fractions need K_n = integral_0^T dt / (1 - B t^2)^n,
        which obey K_(n+1) = T / (2n w^n) + (2n - 1)/(2n) K_n with
        w = 1 - B T^2, and atanh(T) from the pole of I1 at t = 1. The
        coefficients of I1 are simplified by hand so that none is a
        difference of near-equal terms; the O(T) parts of its terms still
        cancel, but they are small next to I0, so the energy and the ratio
        I1/I0 (which fixes the pfa/ntlo deviation) stay accurate.

        Raises PfaViolationError when gap/radius reaches the 0.5 hard
        threshold of validate_pfa() (with the constructor's message from 1 on),
        and NonFiniteResultError when I0 is not positive or I0 + I1 is not
        finite in double precision, so that every energy formed from them is
        finite and negative.
        """
        R = self.radius
        ratio = g / R
        if ratio >= PFA_FAIL_RATIO:
            _check_gap_ratio(g, R)
            raise PfaViolationError(
                f"gap/radius = {ratio:.3g} >= 0.5; the arc energy is not "
                "evaluated beyond the proximity approximation's hard threshold"
            )
        T = self._t
        B = (2.0 * R - g) / g
        b = math.sqrt(B)
        # w = 1 - B T^2, written through the sagitta so that it is positive
        # exactly when the geometry clears the plate
        w = (g - self.sagitta) * self._one_plus_t2 / g
        # atanh(bT)/b, via log1p: the plain log loses digits when bT is small
        k1 = math.log1p(2.0 * b * T * (1.0 + b * T) / w) / (2.0 * b)
        k2 = T / (2.0 * w) + 0.5 * k1
        k3 = T / (4.0 * w * w) + 0.75 * k2
        D = 2.0 * (R - g) / g  # B - 1, > 2 below the hard threshold
        try:  # g**3 can underflow to zero and the powers of B overflow
            scale = 4.0 * R / g**3
            i0 = scale * ((1.0 - 1.0 / (B * B)) * k3 + (2.0 * k2 - k1) / (B * B))
            i1 = scale * (
                4.0 * (B + 1.0) / (B * D) * k3
                - 4.0 * ((B + 1.0) ** 2 - 2.0) / (B * D * D) * k2
                + 8.0 / D**3 * (B * k1 - self._atanh_t)
            )
        except (OverflowError, ZeroDivisionError):
            i0 = i1 = math.nan
        if not (i0 > 0.0 and math.isfinite(i0 + i1)):
            raise NonFiniteResultError(
                f"arc integrals at radius {R} m, gap {g} m out of double range"
            )
        return i0, i1

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
