"""The package's two dataclasses. A sweep uses neither, so only arc_energy and
the module __getattr__s of arcplate and arcplate.casimir import this module."""

from dataclasses import dataclass

from .casimir import _C, _HBAR, EnergyModel


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants; fixed, not configurable."""

    hbar: float = _HBAR  # J*s, CODATA 2018
    c: float = _C  # m/s, exact


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class LineEnergy:
    """Arc-plate interaction energy per unit depth, negative (attractive)."""

    value: float  # J/m
    model: EnergyModel
