"""Arc-over-plate geometry: sagitta, arc integrals, arc length, proximity validity.

Convention: the configured gap is the separation at the arc's center (y = 0),
which is the point farthest from the plate; the edges at |y| = half_span sit
closer by the sagitta. All lengths are SI meters. Frozen, the base of the
package's value types, lives here: every module that defines one imports this.
"""

from __future__ import annotations

import math
from typing import Literal, Sequence

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


def _gap_ratio_error(gap: float, radius: float) -> PfaViolationError | None:
    """The error of a gap at or beyond the radius, or None."""
    if gap / radius >= 1.0:
        return PfaViolationError(
            f"gap/radius = {gap / radius:.3g} >= 1; the local "
            "parallel-plate picture has no meaning here"
        )
    return None


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
    """An arc of radius R over a plate: R, y_max (half the span) and the gap g
    at the arc's center (see above), m. _integrals(gaps) evaluates the arc
    integrals for a whole column of gaps, so one geometry and one call serve a
    whole sweep."""

    __slots__ = __match_args__ = ("radius", "half_span", "gap")

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
        error = _gap_ratio_error(self.gap, self.radius)
        if error is not None:
            raise error
        hi, lo, _ = self._sagitta_and_t()
        if (self.gap - hi) - lo <= 0.0:
            raise ContactViolationError(
                f"gap {self.gap:.6g} m does not clear the sagitta "
                f"{hi:.6g} m; the arc would touch the plate"
            )

    @property
    def sagitta(self) -> float:
        """Height of the arc over its chord, m: how much closer its edges sit.
        The correctly rounded value; _sagitta_and_t() also gives the rest."""
        return self._sagitta_and_t()[0]

    def _sagitta_and_t(self) -> tuple[float, float, float]:
        """(hi, lo, T): the sagitta as the unevaluated pair hi + lo, hi the
        correctly rounded sagitta and lo the rest, and T = tan(theta_max/2).

        With root = R + sqrt(R^2 - y_max^2), T = y_max / root, formed from
        r = R / 2^k and y = y_max / 2^k, with r in [0.5, 1), so that no square
        leaves a double's range; T gets the bits of the unscaled formula
        wherever that formula's squares are normal. The sagitta, the smaller
        root of f(s) = s^2 - 2R s + y_max^2, is found in exact integers: with
        R and y_max over one power of two, scaled so that the sagitta has 120
        bits or more, isqrt gives it to within 1, and every rounding boundary
        of hi is an integer. So hi is correctly rounded, ties included, and a
        sagitta below the least double reads 0. With d = 2(R - hi),
        f(hi) = lo (d - lo) exactly; one step from lo = f(hi)/d gives
        lo = d f(hi) / (d^2 - f(hi)), rounded once, whose relative error
        before rounding is about (lo/d)^2 < 2^-54: lo is within 1 ulp."""
        R, Y = self.radius, self.half_span
        r, k = math.frexp(R)
        y = math.ldexp(Y, -k)
        t = y / (r + math.sqrt(r * r - y * y))
        (a, p), (b, q) = R.as_integer_ratio(), Y.as_integer_ratio()
        den = max(p, q)
        a, b = a * (den // p), b * (den // q)  # R = a / den and y_max = b / den
        shift = max(0, 123 + a.bit_length() - 2 * b.bit_length())  # sagitta den 2^shift >= 2^120
        scale = den << shift
        a, b = a << shift, b << shift
        n = a * a - b * b
        root = math.isqrt(n)
        # the sagitta times scale lies in (a - root - 1, a - root], at the top
        # only if root^2 = n, that is f(a - root) = 0; so hi is the rounding of
        # a - root, or of a - root - 1/2 if f(a - root) < 0
        hi = (2 * (a - root) - (root * root < n)) / (2 * scale)
        c, e = hi.as_integer_ratio()
        m = a - c * scale // e  # (R - hi) scale: hi's ulp times scale is an integer
        f = m * m - n  # f(hi) scale^2
        return hi, 2 * m * f / ((4 * m * m - f) * scale), t

    def _integrals(self, gaps: Sequence[float]) -> tuple[
            list[float], list[float], PfaViolationError | NonFiniteResultError | None]:
        """(I0s, I1s, error): the arc integrals over gaps, in 1/m^2, and the
        first failing gap's error. At each gap g, I0 = integral 1/psi^3 and
        I1 = integral psi'^2/psi^3 over the span; every model's energy is
        linear in them. Each g is the geometry's gap or a larger one, so that
        it clears the plate; one call evaluates a whole sweep.

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

        The gaps are checked in order, each before the next is evaluated, and
        the columns end before the first that fails. Its error is
        PfaViolationError when gap/radius reaches the 0.5 hard threshold of
        validate_pfa() (with the constructor's message from 1 on), or
        NonFiniteResultError when I0 is not positive or I0 + I1 is not finite
        in double precision; error is None when no gap fails.
        """
        # the gap-independent terms, bound once per call; per gap, every
        # expression keeps the order of operations of the formulas above
        R = self.radius
        hi, lo, T = self._sagitta_and_t()
        one_plus_t2, atanh_t = 1.0 + T * T, math.atanh(T)
        two_r, four_r = 2.0 * R, 4.0 * R
        sqrt, log1p, isfinite = math.sqrt, math.log1p, math.isfinite
        i0s: list[float] = []
        i1s: list[float] = []
        for g in gaps:
            ratio = g / R
            if ratio >= PFA_FAIL_RATIO:
                error = _gap_ratio_error(g, R) or PfaViolationError(
                    f"gap/radius = {ratio:.3g} >= 0.5; the arc energy is not "
                    "evaluated beyond the proximity approximation's hard threshold"
                )
                return i0s, i1s, error
            B = (two_r - g) / g
            b = sqrt(B)
            # w = 1 - B T^2, written through the sagitta so that it is positive
            # exactly when the geometry clears the plate; near contact g - hi is
            # exact, and lo carries the sagitta's bits beyond hi's
            w = ((g - hi) - lo) * one_plus_t2 / g
            # atanh(bT)/b, via log1p: the plain log loses digits when bT is small
            k1 = log1p(2.0 * b * T * (1.0 + b * T) / w) / (2.0 * b)
            k2 = T / (2.0 * w) + 0.5 * k1
            k3 = T / (4.0 * w * w) + 0.75 * k2
            D = 2.0 * (R - g) / g  # B - 1, > 2 below the hard threshold
            BB, BD = B * B, B * D
            try:  # g**3 can underflow to zero and the powers of B overflow
                scale = four_r / g**3
                i0 = scale * ((1.0 - 1.0 / BB) * k3 + (2.0 * k2 - k1) / BB)
                i1 = scale * (
                    4.0 * (B + 1.0) / BD * k3
                    - 4.0 * ((B + 1.0) ** 2 - 2.0) / (BD * D) * k2
                    + 8.0 / D**3 * (B * k1 - atanh_t)
                )
            except (OverflowError, ZeroDivisionError):
                i0 = i1 = math.nan
            if not (i0 > 0.0 and isfinite(i0 + i1)):
                return i0s, i1s, NonFiniteResultError(
                    f"arc integrals at radius {R} m, gap {g} m out of double range"
                )
            i0s.append(i0)
            i1s.append(i1)
        return i0s, i1s, None

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
        hi, lo, _ = self._sagitta_and_t()
        return PfaReport(ratio=ratio, status=status, contact_margin=(self.gap - hi) - lo)
