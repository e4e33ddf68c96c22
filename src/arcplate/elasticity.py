"""Thin-plate bending mechanics and the material table.

Kirchhoff-Love plate theory: bending stiffness D = E t^3 / (12 (1 - nu^2)),
strain energy density u = (D/2) [(k11 + k22)^2 - 2 (1 - nu)(k11 k22 - k12^2)],
and the per-unit-depth bending energy of a cylindrically curved strip,
u(arc curvature) times arc length. Energies pair dimensionally with the
per-unit-depth interaction energies from the casimir module (J/m).
"""

from __future__ import annotations

import math
import sys
import warnings
from typing import Mapping, Sequence

from .errors import MaterialNotFoundError, NonPositiveThicknessError
from .geometry import ArcGeometry, Frozen

__all__ = [
    "Material",
    "MaterialWarning",
    "CurvatureTensor",
    "ThinPlateReport",
    "builtin_materials",
    "material_by_name",
    "bending_stiffness",
    "strain_energy_density",
    "bending_energy",
    "thin_plate_check",
]

# Strict tenth-rule bound for the thin-plate assumptions: t < span / 10.
THIN_PLATE_FACTOR = 10.0


class MaterialWarning(UserWarning):
    """Material parameters are unusual but accepted (e.g. nu above 0.5)."""


# Range rule of each elastic constant: its test, and how the rule reads in an
# error message. An unset (None) uncertainty passes.
_SIGMA_RULE = (lambda v: v is None or 0.0 <= v < math.inf, "must be >= 0 and finite")
_RULES = {
    "youngs_modulus": (lambda v: 0.0 < v < math.inf, "must be positive and finite"),
    "poisson_ratio": (lambda v: -1.0 < v < 1.0, "must lie in (-1, 1)"),
    "sigma_e": _SIGMA_RULE,
    "sigma_nu": _SIGMA_RULE,
}


def _range_error(arg: str, value: float | None) -> str | None:
    """How ``value`` breaks the range rule of the Material argument ``arg``,
    or None when it keeps it."""
    keeps, rule = _RULES[arg]
    return None if keeps(value) else f"{rule}, got {value}"


class Material(Frozen):
    """Isotropic elastic constants of one membrane material: Young's modulus
    E (Pa), Poisson ratio nu, and optional one-sigma uncertainties of each,
    stored for reporting only; no computation here propagates them.
    """

    __slots__ = __match_args__ = ("name", "youngs_modulus", "poisson_ratio", "sigma_e", "sigma_nu")

    def __init__(self, name: str, youngs_modulus: float, poisson_ratio: float,
                 sigma_e: float | None = None, sigma_nu: float | None = None) -> None:
        self._set((name, youngs_modulus, poisson_ratio, sigma_e, sigma_nu))
        if not self.name:
            raise ValueError("material name must be non-empty")
        for arg in _RULES:
            broken = _range_error(arg, getattr(self, arg))
            if broken:
                raise ValueError(f"{self.name}: {arg} {broken}")
        if self.poisson_ratio > 0.5:
            # Thin-film values above the isotropic bulk bound are accepted
            # on purpose; flag them so the choice is visible, at the first
            # caller outside this module (builtin_materials and _build_material are inside).
            level, frame = 1, sys._getframe()
            while frame is not None and frame.f_globals.get("__name__") == __name__:
                level, frame = level + 1, frame.f_back
            warnings.warn(
                f"{self.name}: poisson ratio {self.poisson_ratio} exceeds the "
                "isotropic bulk limit 0.5; accepted as a thin-film value",
                MaterialWarning,
                stacklevel=level,
            )

    @property
    def plane_strain_modulus(self) -> float:
        """E / (1 - nu^2), Pa; the stiffness combination bending depends on."""
        return self.youngs_modulus / (1.0 - self.poisson_ratio**2)


# Material arguments of the shipped materials, by lower-cased name. Building
# silver warns (its thin-film Poisson ratio), so lookups build only the match.
_BUILTINS = {
    "gold": dict(name="gold", youngs_modulus=97e9, poisson_ratio=0.421, sigma_e=10e9, sigma_nu=0.06),
    "silver": dict(name="silver", youngs_modulus=83.6e9, poisson_ratio=0.517),
}


def builtin_materials() -> list[Material]:
    """The two membrane materials shipped with the package."""
    return [Material(**args) for args in _BUILTINS.values()]


def _build_material(table: Mapping[str, Material | Mapping], name: str) -> Material:
    """Case-insensitive lookup in ``table``, lower-cased name -> material or
    Material arguments; only the entry returned is built."""
    entry = table.get(name.strip().lower())
    if entry is None:
        raise MaterialNotFoundError(
            f"unknown material {name!r}; available: {', '.join(table)}"
        )
    return entry if isinstance(entry, Material) else Material(**entry)


def material_by_name(name: str, materials: Sequence[Material] | None = None) -> Material:
    """Case-insensitive lookup in ``materials``, or in the builtins when
    omitted, of which only the one returned is built."""
    if materials is None:
        return _build_material(_BUILTINS, name)
    return _build_material({mat.name.lower(): mat for mat in materials}, name)


class CurvatureTensor(Frozen):
    """Symmetric 2x2 curvature tensor, entries in 1/m (k21 == k12)."""

    __slots__ = __match_args__ = ("k11", "k12", "k22")

    def __init__(self, k11: float, k12: float, k22: float) -> None:
        self._set((k11, k12, k22))
        for label, k in (("k11", self.k11), ("k12", self.k12), ("k22", self.k22)):
            if not math.isfinite(k):
                raise ValueError(f"curvature {label} must be finite, got {k}")

    @classmethod
    def arc(cls, radius: float) -> "CurvatureTensor":
        """Cylindrical bending: principal curvatures (1/radius, 0)."""
        if radius <= 0.0:
            raise ValueError(f"radius must be positive, got {radius}")
        return cls(k11=1.0 / radius, k12=0.0, k22=0.0)

    @classmethod
    def flat(cls) -> "CurvatureTensor":
        return cls(0.0, 0.0, 0.0)


def bending_stiffness(mat: Material, t: float) -> float:
    """D = E t^3 / (12 (1 - nu^2)), in J."""
    if t <= 0.0:
        raise NonPositiveThicknessError(f"thickness must be positive, got {t}")
    return mat.youngs_modulus * t**3 / (12.0 * (1.0 - mat.poisson_ratio**2))


def strain_energy_density(D: float, nu: float, k: CurvatureTensor) -> float:
    """Bending strain energy per unit area, J/m^2.

    u = (D/2) [(k11 + k22)^2 - 2 (1 - nu)(k11 k22 - k12^2)]
    """
    if D < 0.0:
        raise ValueError(f"bending stiffness must be >= 0, got {D}")
    trace = k.k11 + k.k22
    det = k.k11 * k.k22 - k.k12 * k.k12
    return 0.5 * D * (trace * trace - 2.0 * (1.0 - nu) * det)


def bending_energy(mat: Material, t: float, geom: ArcGeometry) -> float:
    """Per-unit-depth bending energy of the arc, J/m.

    Strain energy density at the arc curvature times the arc length;
    strictly increasing and exactly cubic in t.
    """
    D = bending_stiffness(mat, t)
    u = strain_energy_density(D, mat.poisson_ratio, CurvatureTensor.arc(geom.radius))
    return u * geom.arc_length()


class ThinPlateReport(Frozen):
    """Tenth-rule check of the thin-plate assumptions for spans a and b (ok_a: t < a / 10)."""

    __slots__ = __match_args__ = ("ratio_a", "ratio_b", "ok_a", "ok_b")

    def __init__(self, ratio_a: float, ratio_b: float, ok_a: bool, ok_b: bool) -> None:
        self._set((ratio_a, ratio_b, ok_a, ok_b))

    @property
    def passed(self) -> bool:
        return self.ok_a and self.ok_b


def thin_plate_check(t: float, span_a: float, span_b: float) -> ThinPlateReport:
    """Report whether thickness t is thin against both lateral spans."""
    if t <= 0.0:
        raise NonPositiveThicknessError(f"thickness must be positive, got {t}")
    if span_a <= 0.0 or span_b <= 0.0:
        raise ValueError(f"spans must be positive, got {span_a} and {span_b}")
    return ThinPlateReport(
        ratio_a=t / span_a,
        ratio_b=t / span_b,
        ok_a=t < span_a / THIN_PLATE_FACTOR,
        ok_b=t < span_b / THIN_PLATE_FACTOR,
    )
