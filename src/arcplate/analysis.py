"""Critical membrane thickness and the gap sweep.

A membrane of thickness t flips its curvature when the magnitude of the
attractive arc-plate energy exceeds the bending energy; since bending energy
is exactly cubic in t, the largest admissible thickness has the closed form
t = (|U| / C)^(1/3) with C = E L / (24 (1 - nu^2) R^2). The sweep evaluates
this across a uniform grid of gaps for every requested material and model.
"""

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import repeat

from .casimir import NTLO, PFA, EnergyModel, _energies, _in_range
from .elasticity import Material
from .errors import (
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
    if not u_casimir < 0.0:
        raise NonNegativeEnergyError(f"need an attractive (negative) energy, got {u_casimir}")
    return _thicknesses([[u_casimir]], [coef])[0][0]


def _bending_coefficient(mat: Material, arc_length: float, radius: float) -> float:
    """C = E L / (24 (1 - nu^2) R^2), J/m^4: bending energy per cubed
    thickness. It does not depend on the gap."""
    return _in_range(  # R**2 can overflow or underflow to 0
        lambda: mat.plane_strain_modulus * arc_length / (24.0 * radius**2), 1.0,
        lambda coef: f"{mat.name}: bending coefficient {coef} J/m^4 at radius {radius} m "
        "is not a positive double",
    )


def _thicknesses(energies: list[list[float]], coefs: list[float]) -> list[list[float]]:
    """(-u / C)^(1/3), m: one column per bending coefficient C and energy
    column, coefficients outermost. Every u is negative, so a thickness lies
    in [0, inf]; the first row with one that is not positive and finite raises."""
    thickness = [[(-u / C) ** (1.0 / 3.0) for u in us] for C in coefs for us in energies]
    rows = [ts.index(t) for ts in thickness for t in (0.0, math.inf) if t in ts]
    if rows:  # -u / C underflowed or overflowed
        ts = [column[min(rows)] for column in thickness]
        raise NonFiniteResultError(f"critical thicknesses {ts} m leave the range of a double")
    return thickness


def fractional_deviation(t_a: float, t_b: float) -> float:
    """|t_a - t_b| / t_b; t_b is the reference and must be positive."""
    if t_b <= 0.0:
        raise ZeroReferenceError(f"reference thickness must be positive, got {t_b}")
    return abs(t_a - t_b) / t_b


def _check_grid(gap_min: float, gap_max: float, points: int) -> None:
    """The gap grid's checks, for SweepConfig and for the sweep command,
    which runs them before it builds any material."""
    if not 1 <= points <= MAX_POINTS:
        raise ValueError(f"points must lie in [1, {MAX_POINTS:,}], got {points}")
    for gap in (gap_min, gap_max):
        if not gap > 0.0:
            raise NonPositiveGapError(f"gap must be positive, got {gap}")
    if not gap_min <= gap_max:
        raise ValueError("gap-min exceeds gap-max")
    if not math.isfinite(gap_max):  # run_sweep relies on a finite grid
        raise ValueError(f"gap_max must be finite, got {gap_max}")


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
        _check_grid(self.gap_min, self.gap_max, self.points)
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


# gap in m; energies, model key -> J/m; thickness, (material name, model key)
# -> m; delta, the comparison pair's fractional deviation, or None
SweepRow = namedtuple("SweepRow", "gap energies thickness delta")


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
    # tuple.__new__ is the call SweepRow's own __new__ makes, without its
    # Python frame per row
    rows = map(tuple.__new__, repeat(SweepRow), zip(
        gaps,
        [dict(zip(keys, us)) for us in zip(*energies)],
        [dict(zip(cells, ts)) for ts in zip(*thickness)],
        repeat(None) if delta is None else delta,
    ))
    return SweepTable(config=config, rows=tuple(rows), arc_length=arc_length)


def _sweep_columns(
    config: SweepConfig,
) -> tuple[list[float], list[list[float]], list[list[float]], list[float] | None, float]:
    """The sweep as columns: (gaps, energies, thickness, delta, arc length).

    energies holds one column per model, J/m; thickness one per (material,
    model) cell, materials outermost, m; delta is the comparison pair's
    deviation at the first material, or None without a comparison.

    One ArcGeometry, at the first gap, serves the whole sweep, and each
    material's bending coefficient is formed once, since the arc length
    does not depend on the gap. The grid ascends from the first gap and the
    sagitta does not depend on the gap, so contact, a non-positive gap and
    the radius and span checks can fail only there.

    One call of _energies evaluates the gaps in grid order up to the first
    whose integrals or energies fail and returns that gap's error.
    _thicknesses checks the gaps before it first, row by row, so the error
    raised is the one a row-by-row sweep meets first.
    """
    gaps = config.gaps()
    geom = ArcGeometry(radius=config.radius, half_span=config.half_span, gap=gaps[0])
    arc_length = geom.arc_length()
    coefs = [_bending_coefficient(mat, arc_length, config.radius) for mat in config.materials]
    energies, error = _energies(geom, gaps, config.models)
    thickness = _thicknesses(energies, coefs)
    if error is not None:
        raise error
    delta = None
    pair = config.resolved_comparison()
    if pair is not None:  # first material: its cells lead
        a, b = (thickness[config.models.index(model)] for model in pair)
        delta = [abs(t_a - t_b) / t_b for t_a, t_b in zip(a, b)]
    return gaps, energies, thickness, delta, arc_length
