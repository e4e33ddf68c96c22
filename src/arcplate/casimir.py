"""Casimir interaction energies for ideal-conductor boundaries.

Closed forms for the parallel-plate and sphere-plate configurations, and the
arc-plate energy per unit depth: the leading proximity-style term plus an
optional squared-slope gradient correction (the derivative expansion of
Fosco, Lombardo & Mazzitelli, PRD 84, 105031 (2011); Bimonte, Emig, Jaffe &
Kardar, EPL 97, 50001 (2012)),

    U = -(pi^2 hbar c / 1440) * integral [1 + kappa*(2/3)*psi'(y)^2] / psi(y)^3 dy

with kappa = 0 (leading order), 1 (gradient-corrected), or a scale factor in
between. For a circular arc the integral is elementary; arc_energy evaluates
it exactly through _energies, which forms and range-checks every energy of a
sweep too; the other closed forms stay within a double's range through
_in_range. All functions are pure and thread-safe.
"""

import math
from collections.abc import Callable, Sequence

from .errors import NonFiniteResultError, NonPositiveGapError, PfaViolationError
from .geometry import ArcGeometry, Frozen

__all__ = [
    "EnergyModel",
    "PFA",
    "NTLO",
    "scaled_ntlo",
    "parallel_plate_pressure",
    "parallel_plate_energy_density",
    "sphere_plate_force",
    "sphere_plate_energy",
    "arc_energy",
]


_HBAR = 1.054571817e-34  # J*s, CODATA 2018
_C = 299792458.0  # m/s, exact


# Coefficients evaluated once; every formula below is coefficient / power of
# separation. The plate energy-per-area coefficient (pi/720) is deliberately
# independent of the arc prefactor (pi^2/1440); no derivative relation between
# pressure and that density is asserted anywhere in this package.
_HBAR_C = _HBAR * _C
_PLATE_PRESSURE_COEF = math.pi**2 * _HBAR_C / 240.0  # J*m
_PLATE_DENSITY_COEF = math.pi * _HBAR_C / 720.0  # J*m^2
_SPHERE_FORCE_COEF = math.pi**3 * _HBAR_C / 360.0  # J*m
_SPHERE_ENERGY_COEF = math.pi**3 * _HBAR_C / 720.0  # J*m
_ARC_COEF = math.pi**2 * _HBAR_C / 1440.0  # J*m^2


class EnergyModel(Frozen):
    """Which terms of the profile expansion the arc energy keeps.

    gradient_weight is kappa, the weight of the (2/3) psi'^2 correction:
    PFA (0) keeps only the leading 1/psi^3 term, NTLO (1) adds the full
    correction, and scaled_ntlo(epsilon) weights it by epsilon. Models compare
    by all three fields, so PFA and scaled_ntlo(0) stay distinct models (and
    CSV columns) with bit-equal energies; key names the CSV columns.
    """

    __slots__ = __match_args__ = ("label", "key", "gradient_weight")

    def __init__(self, label: str, key: str, gradient_weight: float) -> None:
        self._set((label, key, gradient_weight))
        if not (0.0 <= self.gradient_weight <= 1.0):
            raise ValueError(
                f"gradient weight must lie in [0, 1], got {self.gradient_weight}"
            )


PFA = EnergyModel("pfa", "pfa", 0.0)
NTLO = EnergyModel("ntlo", "ntlo", 1.0)


def scaled_ntlo(epsilon: float) -> EnergyModel:
    """Gradient correction scaled by epsilon in [0, 1], named by epsilon's %g
    text, or by its repr where that text reads back as another float; -0
    is the model 0."""
    weight = float(epsilon) + 0.0
    name = f"{weight:g}" if float(f"{weight:g}") == weight else repr(weight)
    return EnergyModel(f"scaled-ntlo({name})", f"scaled_ntlo_{name}", weight)


def _in_range(formula: Callable[[], float], sign: float, error: Callable[[float], str]) -> float:
    """formula(), a product of powers, when it is a nonzero finite double of
    the given sign (1.0 or -1.0). A power can overflow, or underflow to zero,
    and so can the result: each raises NonFiniteResultError(error(value))."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = 0.0
    if not 0.0 < sign * value < math.inf:
        raise NonFiniteResultError(error(value))
    return value


def parallel_plate_pressure(d: float) -> float:
    """Attraction per unit area of ideal parallel plates, Pa.

    -pi^2 hbar c / (240 d^4)
    """
    if d <= 0.0:
        raise NonPositiveGapError(f"plate separation must be positive, got {d}")
    return _in_range(lambda: -_PLATE_PRESSURE_COEF / d**4, -1.0,
                     lambda _: f"plate pressure at {d} m out of double range")


def parallel_plate_energy_density(d: float) -> float:
    """Interaction energy per unit plate area, J/m^2.

    -pi hbar c / (720 d^3). This is the served value as such; it is not the
    separation-integral of parallel_plate_pressure, and the arc integral does
    not use it (see module docstring).
    """
    if d <= 0.0:
        raise NonPositiveGapError(f"plate separation must be positive, got {d}")
    return _in_range(lambda: -_PLATE_DENSITY_COEF / d**3, -1.0,
                     lambda _: f"plate energy at {d} m out of double range")


def _check_sphere_args(R: float, d: float) -> None:
    if R <= 0.0:
        raise ValueError(f"sphere radius must be positive, got {R}")
    if d <= 0.0:
        raise NonPositiveGapError(f"gap must be positive, got {d}")
    if d / R >= 1.0:
        raise PfaViolationError(
            f"gap/radius = {d / R:.3g} >= 1; sphere-plate closed form invalid"
        )


def sphere_plate_force(R: float, d: float) -> float:
    """Sphere-plate attraction, N: -pi^3 hbar c R / (360 d^3)."""
    _check_sphere_args(R, d)
    return _in_range(
        lambda: -_SPHERE_FORCE_COEF * R / d**3, -1.0,
        lambda _: f"sphere-plate force at radius {R} m, gap {d} m out of double range",
    )


def sphere_plate_energy(R: float, d: float) -> float:
    """Sphere-plate interaction energy, J: -pi^3 hbar c R / (720 d^2).

    Separation-integral of sphere_plate_force, vanishing at infinite gap;
    exactly linear in R.
    """
    _check_sphere_args(R, d)
    return _in_range(
        lambda: -_SPHERE_ENERGY_COEF * R / (d * d), -1.0,
        lambda _: f"sphere-plate energy at radius {R} m, gap {d} m out of double range",
    )


def arc_energy(geom: ArcGeometry, model: EnergyModel) -> float:
    """Arc-plate interaction energy per unit depth, J/m: _energies at the one
    gap geom.gap, or its error: PfaViolationError when gap/radius reaches the
    0.5 hard threshold of validate_pfa(), NonFiniteResultError when the
    integrals or the energy leave the range of a double. Contact is already
    excluded by the geometry."""
    (column,), error = _energies(geom, [geom.gap], [model])
    if error is not None:
        raise error
    return column[0]


def _energies(geom: ArcGeometry, gaps: Sequence[float], models: Sequence[EnergyModel]
              ) -> tuple[list[list[float]], PfaViolationError | NonFiniteResultError | None]:
    """(columns, error): -pi^2 hbar c / 1440 (I0 + kappa*(2/3)*I1), J/m, one
    column per model, with I0 and I1 from geom._integrals(gaps); kappa = 0
    gives -pi^2 hbar c / 1440 I0 exactly.

    The columns end before the first failing gap, and error is its error:
    the kernel's when the integrals fail, else NonFiniteResultError when an
    energy there is not negative (I0 and I1 are positive and finite, so only
    -0.0 from underflow can occur); None when no gap fails."""
    i0s, i1s, error = geom._integrals(gaps)
    columns = [[-_ARC_COEF * (i0 + weight * i1) for i0, i1 in zip(i0s, i1s)]
               for weight in [model.gradient_weight * (2.0 / 3.0) for model in models]]
    end = min([us.index(0.0) for us in columns if 0.0 in us], default=None)  # -0.0 == 0.0
    if end is not None:
        columns = [us[:end] for us in columns]
        error = NonFiniteResultError(
            f"arc energy at radius {geom.radius} m, gap {gaps[end]} m out of double range"
        )
    return columns, error
