"""Critical membrane thickness and the gap sweep.

A membrane of thickness t flips its curvature when the magnitude of the
attractive arc-plate energy exceeds the bending energy; since bending energy
is exactly cubic in t, the largest admissible thickness has the closed form
t = (|U| / C)^(1/3) with C = E L / (24 (1 - nu^2) R^2). The sweep evaluates
this across a uniform grid of gaps for every requested material and model.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Sequence

from .casimir import _ARC_COEF, NTLO, PFA, EnergyModel
from .elasticity import Material
from .errors import (
    ArcPlateError,
    NonFiniteResultError,
    NonNegativeEnergyError,
    NonPositiveGapError,
    ZeroReferenceError,
)
from .geometry import ArcGeometry, Frozen

__all__ = [
    "MAX_POINTS",
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "critical_thickness",
    "fractional_deviation",
    "run_sweep",
]

# Largest gap grid a sweep accepts; larger requests are rejected before any
# row is computed.
MAX_POINTS = 1_000_000


def critical_thickness(u_casimir: float, mat: Material, geom: ArcGeometry) -> float:
    """Largest thickness whose bending energy the interaction can overcome, m.

    t = (|u_casimir| / C)^(1/3), C = E L / (24 (1 - nu^2) R^2); the reported
    value is the equality point |U| = U_bend(t), i.e. the supremum of
    admissible thicknesses, with the same arc length as bending_energy.
    """
    coef = _bending_coefficient(mat, geom.arc_length(), geom.radius)
    return _thicknesses([u_casimir], [coef])[0]


def _bending_coefficient(mat: Material, arc_length: float, radius: float) -> float:
    """C = E L / (24 (1 - nu^2) R^2), J/m^4: bending energy per cubed
    thickness. It does not depend on the gap."""
    try:
        coef = mat.plane_strain_modulus * arc_length / (24.0 * radius**2)
    except (OverflowError, ZeroDivisionError):  # R**2 overflowed or underflowed to 0
        coef = 0.0
    if not 0.0 < coef < math.inf:
        raise NonFiniteResultError(
            f"{mat.name}: bending coefficient {coef} J/m^4 at radius {radius} m "
            "is not a positive double"
        )
    return coef


def _thicknesses(us: list[float], coefs: list[float]) -> list[float]:
    """(-u / C)^(1/3) for every bending coefficient C and, innermost, every
    energy u. Each u must be negative and each result positive and finite."""
    for u in us:
        if not u < 0.0:
            raise NonNegativeEnergyError(f"need an attractive (negative) energy, got {u}")
    ts = [(-u / coef) ** (1.0 / 3.0) for coef in coefs for u in us]
    if 0.0 in ts or math.inf in ts:  # -u / C underflowed or overflowed
        raise NonFiniteResultError(f"critical thicknesses {ts} m leave the range of a double")
    return ts


def fractional_deviation(t_a: float, t_b: float) -> float:
    """|t_a - t_b| / t_b; t_b is the reference and must be positive."""
    if t_b <= 0.0:
        raise ZeroReferenceError(f"reference thickness must be positive, got {t_b}")
    return abs(t_a - t_b) / t_b


class SweepConfig(Frozen):
    """Inputs of one sweep: gap grid and geometry template (m), materials, models.

    comparison names the (other, reference) model pair feeding the per-row
    deviation delta; None picks (pfa, ntlo) when both are requested and
    disables delta otherwise.
    """

    __slots__ = __match_args__ = ("gap_min", "gap_max", "points", "radius", "half_span",
                                  "materials", "models", "comparison")

    def __init__(self, gap_min: float, gap_max: float, points: int, radius: float,
                 half_span: float, materials: Sequence[Material],
                 models: Sequence[EnergyModel],
                 comparison: tuple[EnergyModel, EnergyModel] | None = None) -> None:
        self._set((gap_min, gap_max, points, radius, half_span, tuple(materials),
                   tuple(models), comparison))
        if not self.gap_min > 0.0:
            raise NonPositiveGapError(f"gap must be positive, got {self.gap_min}")
        if not self.gap_min <= self.gap_max:
            raise ValueError(f"need 0 < gap_min <= gap_max, got [{self.gap_min}, {self.gap_max}]")
        if not math.isfinite(self.gap_max):  # run_sweep relies on a finite grid
            raise ValueError(f"gap_max must be finite, got {self.gap_max}")
        if not (1 <= self.points <= MAX_POINTS):
            raise ValueError(
                f"points must lie in [1, {MAX_POINTS}], got {self.points}"
            )
        if not self.materials:
            raise ValueError("at least one material required")
        if not self.models:
            raise ValueError("at least one model required")
        names = [m.name for m in self.materials]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate material names: {names}")
        keys = [m.key for m in self.models]
        if len(set(keys)) != len(keys):
            raise ValueError(f"duplicate models: {keys}")
        if self.comparison is not None:
            for model in self.comparison:
                if model not in self.models:
                    raise ValueError(
                        f"comparison model {model.label} not among requested models"
                    )

    def resolved_comparison(self) -> tuple[EnergyModel, EnergyModel] | None:
        if self.comparison is not None:
            return self.comparison
        if PFA in self.models and NTLO in self.models:
            return (PFA, NTLO)
        return None

    def reference_model(self) -> EnergyModel:
        """Model whose thicknesses the CSV reports: the deviation reference
        when a comparison is active, else the last model requested."""
        pair = self.resolved_comparison()
        return pair[1] if pair is not None else self.models[-1]

    def gaps(self) -> list[float]:
        """Uniform ascending grid gap_min + i*step ending exactly at gap_max;
        the same floats numpy.linspace gives. points == 1 is [gap_min]."""
        if self.points == 1:
            return [float(self.gap_min)]
        step = (self.gap_max - self.gap_min) / (self.points - 1)
        return [self.gap_min + i * step for i in range(self.points - 1)] + [
            float(self.gap_max)
        ]


class SweepRow(NamedTuple):
    gap: float  # m
    energies: dict[str, float]  # model key -> J/m
    thickness: dict[tuple[str, str], float]  # (material name, model key) -> m
    delta: float | None  # fractional deviation of the comparison pair


class SweepTable(Frozen):
    __slots__ = __match_args__ = ("config", "rows", "arc_length")  # arc_length in m
    _hidden = ("rows",)  # left out of the repr

    def __init__(self, config: SweepConfig, rows: tuple[SweepRow, ...], arc_length: float) -> None:
        self._set((config, rows, arc_length))


def run_sweep(config: SweepConfig) -> SweepTable:
    """One SweepRow per gap, ascending; deterministic for a fixed config.

    The rows are built from _sweep_columns: each gap is evaluated once and
    every model's energy is -(pi^2 hbar c / 1440)(I0 + kappa*(2/3)*I1), the
    same floats arc_energy returns; thicknesses are the same floats
    critical_thickness returns. A violation at any gap aborts the run, and
    the first failing gap in grid order decides the error.
    """
    gaps, energies, thickness, delta, arc_length = _sweep_columns(config)
    keys = [model.key for model in config.models]
    cells = [(mat.name, key) for mat in config.materials for key in keys]
    rows = map(
        SweepRow,
        gaps,
        [dict(zip(keys, us)) for us in zip(*energies)],
        [dict(zip(cells, ts)) for ts in zip(*thickness)],
        repeat(None) if delta is None else delta,
    )
    return SweepTable(config=config, rows=tuple(rows), arc_length=arc_length)


def _sweep_columns(
    config: SweepConfig,
) -> tuple[list[float], list[list[float]], list[list[float]], list[float] | None, float]:
    """The sweep as columns: (gaps, energies, thickness, delta, arc length).

    energies holds one column per model, J/m; thickness one per (material,
    model) cell, materials outermost, m; delta is the comparison pair's
    deviation at the first material, or None without a comparison.

    One ArcGeometry, at the first gap, serves the whole sweep: its integrals
    run once per gap, in grid order, and each material's bending coefficient
    once per sweep, since the arc length does not depend on the gap. The grid
    ascends from the first gap and the sagitta does not depend on the gap, so
    contact, a non-positive gap and the radius and span checks can fail only
    there; _integrals checks gap/radius at every gap.

    Each column is checked whole, by min and max. Only when a check fails
    are the gaps evaluated one by one, so that the error raised is the one a
    row-by-row sweep meets first.
    """
    gaps = config.gaps()
    geom = ArcGeometry(radius=config.radius, half_span=config.half_span, gap=gaps[0])
    arc_length = geom.arc_length()
    weights = [model.gradient_weight * (2.0 / 3.0) for model in config.models]
    coefs = [_bending_coefficient(mat, arc_length, config.radius) for mat in config.materials]
    try:
        integrals = list(map(geom._integrals, gaps))
    except ArcPlateError:
        integrals = None
    if integrals is not None:
        energies = [[-_ARC_COEF * (i0 + w * i1) for i0, i1 in integrals] for w in weights]
        # integrals() leaves I0 and I1 finite, so no energy is nan, and a
        # negative finite energy gives a thickness in [0, inf], never nan
        if max(map(max, energies)) < 0.0:
            thickness = [[(-u / coef) ** (1.0 / 3.0) for u in us]
                         for coef in coefs for us in energies]
            if 0.0 < min(map(min, thickness)) and max(map(max, thickness)) < math.inf:
                delta = None
                pair = config.resolved_comparison()
                if pair is not None:  # first material: its cells lead
                    a, b = (thickness[config.models.index(model)] for model in pair)
                    delta = [abs(t_a - t_b) / t_b for t_a, t_b in zip(a, b)]
                return gaps, energies, thickness, delta, arc_length
    # A check failed. Evaluate gap by gap, in grid order and with one gap's
    # checks in order (integrals, energies, thicknesses): the first failing
    # gap raises its error.
    for gap in gaps:
        i0, i1 = geom._integrals(gap)
        _thicknesses([-_ARC_COEF * (i0 + w * i1) for w in weights], coefs)
    raise AssertionError("a sweep column failed its check but no gap does")
