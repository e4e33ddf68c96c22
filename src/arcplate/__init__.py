"""Arc-plate Casimir interaction vs thin-membrane bending.

Per-unit-depth interaction energy of a circular arc facing a plate (leading
proximity term plus optional gradient correction), Kirchhoff-Love bending
energy of the membrane, and the critical thickness below which the
interaction can reverse the membrane's curvature, swept over a gap grid.
"""

from . import analysis, casimir, elasticity, errors, geometry
from .analysis import *
from .casimir import *
from .elasticity import *
from .errors import *
from .geometry import *

__version__ = "0.4.0"

__all__ = [
    *analysis.__all__,
    *casimir.__all__,
    *elasticity.__all__,
    *errors.__all__,
    *geometry.__all__,
    "__version__",
]
