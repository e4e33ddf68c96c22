"""Arc-plate Casimir interaction vs thin-membrane bending.

Per-unit-depth interaction energy of a circular arc facing a plate (leading
proximity term plus optional gradient correction), Kirchhoff-Love bending
energy of the membrane, and the critical thickness below which the
interaction can reverse the membrane's curvature, swept over a gap grid.
"""

from .analysis import (
    SweepConfig,
    SweepRow,
    SweepTable,
    critical_thickness,
    fractional_deviation,
    run_sweep,
)
from .casimir import (
    NTLO,
    PFA,
    EnergyModel,
    arc_energy,
    parallel_plate_energy_density,
    parallel_plate_pressure,
    scaled_ntlo,
    sphere_plate_energy,
    sphere_plate_force,
)
from .elasticity import (
    CurvatureTensor,
    Material,
    MaterialWarning,
    ThinPlateReport,
    bending_energy,
    bending_stiffness,
    builtin_materials,
    material_by_name,
    strain_energy_density,
    thin_plate_check,
)
from .errors import (
    ArcPlateError,
    ContactViolationError,
    MaterialConfigError,
    MaterialNotFoundError,
    NonFiniteResultError,
    NonNegativeEnergyError,
    NonPositiveGapError,
    NonPositiveThicknessError,
    PfaViolationError,
    ZeroReferenceError,
)
from .geometry import ArcGeometry, PfaReport

__version__ = "0.4.0"


__all__ = [
    "ArcGeometry",
    "ArcPlateError",
    "ContactViolationError",
    "CurvatureTensor",
    "EnergyModel",
    "Material",
    "MaterialConfigError",
    "MaterialNotFoundError",
    "MaterialWarning",
    "NonFiniteResultError",
    "NonNegativeEnergyError",
    "NonPositiveGapError",
    "NonPositiveThicknessError",
    "NTLO",
    "PFA",
    "PfaReport",
    "PfaViolationError",
    "SweepConfig",
    "SweepRow",
    "SweepTable",
    "ThinPlateReport",
    "ZeroReferenceError",
    "arc_energy",
    "bending_energy",
    "bending_stiffness",
    "builtin_materials",
    "critical_thickness",
    "fractional_deviation",
    "material_by_name",
    "parallel_plate_energy_density",
    "parallel_plate_pressure",
    "run_sweep",
    "scaled_ntlo",
    "sphere_plate_energy",
    "sphere_plate_force",
    "strain_energy_density",
    "thin_plate_check",
    "__version__",
]
