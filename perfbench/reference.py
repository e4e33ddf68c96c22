"""Reference energies and thicknesses, computed without arcplate.

The arc integral is evaluated with mpmath at 34 working digits in the
half-angle variable: with y = R sin(theta), t = tan(theta / 2),
b^2 = (2R - g) / g and T = tan(asin(Y / R) / 2), both integrands are rational,

    I0 = int dy / psi^3         = (4R / g^3)  int_0^T (1 - t^4) / (1 - b^2 t^2)^3 dt
    I1 = int psi'^2 / psi^3 dy  = (16R / g^3) int_0^T t^2 (1 + t^2) / ((1 - t^2) (1 - b^2 t^2)^3) dt

and the energy of a model with gradient weight kappa is
-(pi^2 hbar c / 1440) (I0 + kappa (2/3) I1). The direct y-form is kept as
``integrals_y`` so the self-tests can check that the two formulations agree.
Neither arcplate's adaptive Simpson rule nor the midpoint oracle of its test
suite is accurate enough near contact to serve as the reference.

Inputs are decimal strings where the user typed a decimal (radius, span,
material constants, epsilon) and the exact binary value where the program
chose the number (each gap of the linspace grid).
"""

from __future__ import annotations

import mpmath as mp

DPS = 34
HBAR = "1.054571817e-34"  # J s, CODATA 2018, the value arcplate documents
C_LIGHT = "299792458"  # m/s, exact


def integrals(radius: str, half_span: str, gap: float) -> tuple[mp.mpf, mp.mpf]:
    """(I0, I1) over [-Y, Y] in the half-angle variable."""
    with mp.workdps(DPS):
        R, Y, g = mp.mpf(radius), mp.mpf(half_span), mp.mpf(gap)
        T = mp.tan(mp.asin(Y / R) / 2)
        b2 = (2 * R - g) / g
        i0 = mp.quad(lambda t: (1 - t**4) / (1 - b2 * t * t) ** 3, [0, T])
        i1 = mp.quad(lambda t: t * t * (1 + t * t) / ((1 - t * t) * (1 - b2 * t * t) ** 3), [0, T])
        return 4 * R / g**3 * i0, 16 * R / g**3 * i1


def integrals_y(radius: str, half_span: str, gap: float) -> tuple[mp.mpf, mp.mpf]:
    """(I0, I1) from the profile psi(y) = g - R + sqrt(R^2 - y^2) directly."""
    with mp.workdps(DPS):
        R, Y, g = mp.mpf(radius), mp.mpf(half_span), mp.mpf(gap)

        def psi(y):
            return g - R + mp.sqrt(R * R - y * y)

        i0 = mp.quad(lambda y: 1 / psi(y) ** 3, [0, Y])
        i1 = mp.quad(lambda y: (y * y / (R * R - y * y)) / psi(y) ** 3, [0, Y])
        return 2 * i0, 2 * i1


class Reference:
    """Energies and critical thicknesses of one geometry, memoised per gap."""

    def __init__(self, radius: str, half_span: str):
        self.radius = radius
        self.half_span = half_span
        self._integrals: dict[float, tuple[mp.mpf, mp.mpf]] = {}
        with mp.workdps(DPS):
            R, Y = mp.mpf(radius), mp.mpf(half_span)
            self._coef = mp.pi**2 * mp.mpf(HBAR) * mp.mpf(C_LIGHT) / 1440
            self._length = 2 * R * mp.asin(Y / R)

    def energy(self, gap: float, kappa: str) -> mp.mpf:
        """Arc-plate energy per unit depth, J/m, for gradient weight kappa."""
        if gap not in self._integrals:
            self._integrals[gap] = integrals(self.radius, self.half_span, gap)
        i0, i1 = self._integrals[gap]
        with mp.workdps(DPS):
            return -self._coef * (i0 + mp.mpf(kappa) * 2 * i1 / 3)

    def thickness(self, energy: mp.mpf, youngs_modulus: str, poisson_ratio: str) -> mp.mpf:
        """(|U| / C)^(1/3) with C = E L / (24 (1 - nu^2) R^2), m."""
        with mp.workdps(DPS):
            R, E, nu = mp.mpf(self.radius), mp.mpf(youngs_modulus), mp.mpf(poisson_ratio)
            coef = E / (1 - nu * nu) * self._length / (24 * R * R)
            return mp.cbrt(-energy / coef)


def rel_dev(value: float, ref: mp.mpf) -> float:
    with mp.workdps(DPS):
        return float(abs((mp.mpf(value) - ref) / ref))
