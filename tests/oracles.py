"""Independent reference computations for the tests.

Everything here deliberately avoids the package's own closed forms and
cancellation-safe formula variants: plain midpoint rule on numpy arrays,
40-digit mpmath quadrature of the integrands, and textbook closed forms, so
agreement with the library is a genuine cross-check and not the same code
evaluated twice. There are two exceptions. reference_sweep pins the order of
a sweep's rows and errors, not its arithmetic, and so calls the package's arc
integrals and bending coefficient. reference_integrals is the arc-integral
closed form as it was written for one gap at a time (arcplate 0.4.0), kept
verbatim but for the sagitta pair, so that the column kernel can be held to
its bits and its errors.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np

from arcplate.analysis import SweepRow, _bending_coefficient, fractional_deviation
from arcplate.casimir import _ARC_COEF
from arcplate.errors import NonFiniteResultError, PfaViolationError
from arcplate.geometry import PFA_FAIL_RATIO, ArcGeometry, _gap_ratio_error

HBAR = 1.054571817e-34  # J*s
C = 299792458.0  # m/s

ARC_COEF = math.pi**2 * HBAR * C / 1440.0  # J*m^2


def midpoint_arc_integral(
    radius: float,
    half_span: float,
    gap: float,
    kappa: float,
    panels: int = 1_000_000,
) -> float:
    """Midpoint rule on [1 + kappa*(2/3)*psi'^2] / psi^3 with the direct
    (not cancellation-protected) profile formula."""
    h = 2.0 * half_span / panels
    y = -half_span + (np.arange(panels) + 0.5) * h
    root = np.sqrt(radius * radius - y * y)
    psi = gap - radius + root
    slope = -y / root
    integrand = (1.0 + kappa * (2.0 / 3.0) * slope * slope) / psi**3
    return float(np.sum(integrand) * h)


def midpoint_arc_energy(
    radius: float,
    half_span: float,
    gap: float,
    kappa: float,
    panels: int = 1_000_000,
) -> float:
    return -ARC_COEF * midpoint_arc_integral(radius, half_span, gap, kappa, panels)


@lru_cache(maxsize=None)
def _mpmath_arc_integrals(radius: float, half_span: float, gap: float):
    # y = R sin(theta), t = tan(theta/2): psi = g (1 - b^2 t^2)/(1 + t^2) and
    # dy = 2R (1 - t^2)/(1 + t^2)^2 dt, so both integrands are rational in t
    R, Y, g = mp.mpf(radius), mp.mpf(half_span), mp.mpf(gap)
    T = Y / (R + mp.sqrt(R * R - Y * Y))
    b2 = (2 * R - g) / g
    scale = 4 * R / g**3
    i0 = mp.quad(lambda t: (1 - t**4) / (1 - b2 * t * t) ** 3, [0, T])
    i_sec = mp.quad(
        lambda t: (1 + t * t) ** 3 / ((1 - t * t) * (1 - b2 * t * t) ** 3), [0, T]
    )
    return scale * i0, scale * i_sec


def mpmath_arc_energy(radius: float, half_span: float, gap: float, kappa: float) -> float:
    """-ARC_COEF times integral [1 + kappa*(2/3)*psi'^2] / psi^3 dy at 40 digits,
    from the exact values of the float inputs. The integrand is split as
    (1 - 2 kappa/3)/psi^3 + (2 kappa/3)(1 + psi'^2)/psi^3 and each part is
    integrated in the half-angle variable t."""
    with mp.workdps(40):
        i0, i_sec = _mpmath_arc_integrals(radius, half_span, gap)
        weight = mp.mpf(kappa) * 2 / 3
        return float(-mp.mpf(ARC_COEF) * ((1 - weight) * i0 + weight * i_sec))


def mpmath_ntlo_integral(radius: float, half_span: float, gap: float) -> float:
    """I0 + (2/3) I1 at 40 digits, from the exact values of the float inputs:
    the integral of the ntlo energy, (1/3) I0 + (2/3)(I0 + I1)."""
    with mp.workdps(40):
        i0, i_sec = _mpmath_arc_integrals(radius, half_span, gap)
        return float((i0 + 2 * i_sec) / 3)


def mpmath_sagitta(radius: float, half_span: float, bits: int = 256) -> mp.mpf:
    """Y^2 / (R + sqrt(R^2 - Y^2)) at the given precision, from the exact
    values of the float inputs."""
    with mp.workprec(bits):
        R, Y = mp.mpf(radius), mp.mpf(half_span)
        return +(Y * Y / (R + mp.sqrt(R * R - Y * Y)))


def mpmath_gradient_correction(radius: float, half_span: float, gap: float) -> float:
    """(U_ntlo - U_pfa) / U_pfa at 40 digits: (2/3) integral psi'^2/psi^3 over
    integral 1/psi^3."""
    with mp.workdps(40):
        i0, i_sec = _mpmath_arc_integrals(radius, half_span, gap)
        return float((i_sec - i0) * 2 / (3 * i0))


def midpoint_integral(f, lower: float, upper: float, panels: int) -> float:
    """Generic midpoint rule for scalar callables (vectorized over numpy)."""
    h = (upper - lower) / panels
    y = lower + (np.arange(panels) + 0.5) * h
    return float(np.sum(f(y)) * h)


def bending_coefficient(e_pa: float, nu: float, radius: float, half_span: float) -> float:
    """C with U_bend = C * t^3: E * L / (24 (1 - nu^2) R^2), closed-form L."""
    length = 2.0 * radius * math.asin(half_span / radius)
    return e_pa * length / (24.0 * (1.0 - nu * nu) * radius * radius)


def reference_sweep(config) -> tuple[list[SweepRow], float]:
    """(rows, arc length) of a sweep, evaluated row by row as run_sweep did
    up to arcplate 0.3.0: per gap the arc integrals, then every model's
    energy, then every (material, model) thickness, then the deviation. The
    first gap that fails a check raises its error, and an energy that is not
    negative raises arc_energy's."""
    gaps = config.gaps()
    geom = ArcGeometry(radius=config.radius, half_span=config.half_span, gap=gaps[0])
    arc_length = geom.arc_length()
    keys = [model.key for model in config.models]
    weights = [model.gradient_weight * (2.0 / 3.0) for model in config.models]
    cells = [(mat.name, key) for mat in config.materials for key in keys]
    coefs = [
        _bending_coefficient(mat, arc_length, config.radius) for mat in config.materials
    ]
    pair = config.resolved_comparison()
    if pair is not None:
        first_material = config.materials[0].name
        other, reference = (first_material, pair[0].key), (first_material, pair[1].key)
    rows = []
    for gap in gaps:
        i0s, i1s, error = geom._integrals([gap])
        if error is not None:
            raise error
        (i0,), (i1,) = i0s, i1s
        us = [-_ARC_COEF * (i0 + weight * i1) for weight in weights]
        for u in us:
            if not u < 0.0:
                raise NonFiniteResultError(
                    f"arc energy at radius {geom.radius} m, gap {gap} m out of double range"
                )
        ts = [(-u / coef) ** (1.0 / 3.0) for coef in coefs for u in us]
        if 0.0 in ts or math.inf in ts:
            raise NonFiniteResultError(f"critical thicknesses {ts} m leave the range of a double")
        thickness = dict(zip(cells, ts))
        delta = None
        if pair is not None:
            delta = fractional_deviation(thickness[other], thickness[reference])
        rows.append(SweepRow(gap, dict(zip(keys, us)), thickness, delta))
    return rows, arc_length


def reference_integrals(self: ArcGeometry, g: float) -> tuple[float, float]:
    """(I0, I1) of geometry self at gap g: the body of the one-gap
    ArcGeometry._integrals(g) of arcplate 0.4.0, verbatim, but for three
    things. It derives T, 1 + T^2 and atanh T, which that geometry stored,
    from _sagitta_and_t(), it takes the sagitta as the pair hi + lo from
    there too, and it raises the >= 1 error that _gap_ratio_error returns."""
    R = self.radius
    ratio = g / R
    if ratio >= PFA_FAIL_RATIO:
        error = _gap_ratio_error(g, R)
        if error is not None:
            raise error
        raise PfaViolationError(
            f"gap/radius = {ratio:.3g} >= 0.5; the arc energy is not "
            "evaluated beyond the proximity approximation's hard threshold"
        )
    hi, lo, T = self._sagitta_and_t()
    B = (2.0 * R - g) / g
    b = math.sqrt(B)
    # w = 1 - B T^2, written through the sagitta so that it is positive
    # exactly when the geometry clears the plate
    w = ((g - hi) - lo) * (1.0 + T * T) / g
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
            + 8.0 / D**3 * (B * k1 - math.atanh(T))
        )
    except (OverflowError, ZeroDivisionError):
        i0 = i1 = math.nan
    if not (i0 > 0.0 and math.isfinite(i0 + i1)):
        raise NonFiniteResultError(
            f"arc integrals at radius {R} m, gap {g} m out of double range"
        )
    return i0, i1
