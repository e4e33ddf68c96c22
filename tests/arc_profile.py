"""The arc's pointwise profile psi(y) and slope psi'(y), for the tests.

The package evaluates the arc integrals in closed form and, since 0.2.0, has
no pointwise profile API. The tests still pin the profile itself and
integrate it with the reference engine in quadrature.py to cross-check those
closed forms. These are the package's 0.1.0 formulas, cancellation-safe
variants included; oracles.py keeps the independent direct ones. (The module
is not named profile.py so that it does not shadow the standard library's
profile module on the tests' import path.)
"""

import math

from arcplate.errors import ArcPlateError, ContactViolationError
from arcplate.geometry import ArcGeometry

__all__ = ["OutOfSpanError", "separation", "slope"]


class OutOfSpanError(ArcPlateError, ValueError):
    """Transverse coordinate lies outside the arc's half-span."""


def _check_span(geom: ArcGeometry, y: float) -> None:
    if abs(y) > geom.half_span:
        raise OutOfSpanError(
            f"|y| = {abs(y):.6g} m exceeds half_span {geom.half_span:.6g} m"
        )


def separation(geom: ArcGeometry, y: float) -> float:
    """Local gap psi(y) = g - R + sqrt(R^2 - y^2); psi(0) = g."""
    _check_span(geom, y)
    # written as g minus the local sagitta to stay cancellation-safe
    local_sag = y * y / (geom.radius + math.sqrt(geom.radius * geom.radius - y * y))
    psi = geom.gap - local_sag
    if psi <= 0.0:
        raise ContactViolationError(
            f"separation {psi:.6g} m at y = {y:.6g} m; arc touches the plate"
        )
    return psi


def slope(geom: ArcGeometry, y: float) -> float:
    """Profile derivative d(psi)/dy = -y / sqrt(R^2 - y^2); odd in y."""
    _check_span(geom, y)
    return -y / math.sqrt(geom.radius * geom.radius - y * y)
