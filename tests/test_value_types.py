"""The package's value types keep the behaviour of the frozen dataclasses they
were: a repr in the dataclass format (the expected strings are what the
dataclasses wrote), equality and hashing over the fields, no assignment or
deletion, no equality across types, and copies and pickles equal to the
original."""

import copy
import pickle
import warnings

import pytest

from arcplate import (
    NTLO,
    PFA,
    ArcGeometry,
    CurvatureTensor,
    EnergyModel,
    Material,
    MaterialWarning,
    PfaReport,
    SweepConfig,
    SweepTable,
    ThinPlateReport,
    material_by_name,
    run_sweep,
)

GOLD = dict(name="gold", youngs_modulus=97e9, poisson_ratio=0.421, sigma_e=10e9, sigma_nu=0.06)
GOLD_REPR = (
    "Material(name='gold', youngs_modulus=97000000000.0, poisson_ratio=0.421, "
    "sigma_e=10000000000.0, sigma_nu=0.06)"
)
CONFIG = dict(gap_min=1e-7, gap_max=1e-6, points=3, radius=1e-4, half_span=3e-6,
              materials=[Material(**GOLD)], models=[PFA, NTLO])
CONFIG_REPR = (
    "SweepConfig(gap_min=1e-07, gap_max=1e-06, points=3, radius=0.0001, half_span=3e-06, "
    f"materials=({GOLD_REPR},), "
    "models=(EnergyModel(label='pfa', key='pfa', gradient_weight=0.0), "
    "EnergyModel(label='ntlo', key='ntlo', gradient_weight=1.0)), comparison=None)"
)

# type, keyword arguments, repr
CASES = [
    (ArcGeometry, dict(radius=1e-4, half_span=3e-6, gap=1e-7),
     "ArcGeometry(radius=0.0001, half_span=3e-06, gap=1e-07)"),
    (PfaReport, dict(ratio=0.001, status="pass", contact_margin=5.5e-8),
     "PfaReport(ratio=0.001, status='pass', contact_margin=5.5e-08)"),
    (Material, GOLD, GOLD_REPR),
    (Material, dict(name="x", youngs_modulus=1e9, poisson_ratio=0.3),
     "Material(name='x', youngs_modulus=1000000000.0, poisson_ratio=0.3, sigma_e=None, "
     "sigma_nu=None)"),
    (CurvatureTensor, dict(k11=1e4, k12=0.0, k22=-2.5),
     "CurvatureTensor(k11=10000.0, k12=0.0, k22=-2.5)"),
    (ThinPlateReport, dict(ratio_a=1 / 600, ratio_b=0.2, ok_a=True, ok_b=False),
     "ThinPlateReport(ratio_a=0.0016666666666666668, ratio_b=0.2, ok_a=True, ok_b=False)"),
    (EnergyModel, dict(label="scaled-ntlo(0.5)", key="scaled_ntlo_0.5", gradient_weight=0.5),
     "EnergyModel(label='scaled-ntlo(0.5)', key='scaled_ntlo_0.5', gradient_weight=0.5)"),
    (SweepConfig, CONFIG, CONFIG_REPR),
    (SweepTable, dict(config=SweepConfig(**CONFIG), rows=(), arc_length=6e-6),
     f"SweepTable(config={CONFIG_REPR}, arc_length=6e-06)"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


@pytest.mark.parametrize("cls,kwargs,expected", CASES, ids=IDS)
def test_repr_matches_the_dataclass(cls, kwargs, expected):
    assert repr(cls(**kwargs)) == expected


def test_sweep_table_repr_leaves_out_rows():
    table = run_sweep(SweepConfig(**CONFIG))
    assert len(table.rows) == 3
    assert repr(table) == f"SweepTable(config={CONFIG_REPR}, arc_length=6.0009003646953874e-06)"


@pytest.mark.parametrize("cls,kwargs,expected", CASES, ids=IDS)
def test_equal_instances_hash_equal(cls, kwargs, expected):
    a, b = cls(**kwargs), cls(**kwargs)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls,kwargs,expected", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, kwargs, expected):
    value = cls(**kwargs)
    for name in kwargs:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls,kwargs,expected", CASES, ids=IDS)
def test_another_type_with_the_same_values_is_unequal(cls, kwargs, expected):
    value = cls(**kwargs)
    other = type("Other", (cls,), {"__slots__": ()})(**kwargs)
    assert value != other and other != value
    assert value.__eq__(other) is NotImplemented
    assert value != tuple(getattr(value, name) for name in kwargs)


@pytest.mark.parametrize("cls,kwargs,expected", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, kwargs, expected):
    value = cls(**kwargs)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value


@pytest.mark.parametrize(
    "copier", [copy.copy, copy.deepcopy, lambda geom: pickle.loads(pickle.dumps(geom))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_arc_geometry_copies_keep_the_derived_terms(copier):
    geom = ArcGeometry(radius=1e-4, half_span=3e-6, gap=1e-7)
    twin = copier(geom)
    assert twin.sagitta == geom.sagitta
    for gap in (geom.gap, 7e-7):
        assert twin._integrals(gap) == geom._integrals(gap)


def test_copying_does_not_rerun_the_checks():
    with pytest.warns(MaterialWarning):
        silver = material_by_name("silver")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert copy.deepcopy(silver) == silver
        assert pickle.loads(pickle.dumps(silver)) == silver


def test_sibling_types_with_the_same_values_are_unequal():
    assert ArcGeometry(1e-4, 3e-6, 1e-7) != CurvatureTensor(1e-4, 3e-6, 1e-7)


def test_positional_patterns_match_the_fields_in_order():
    match ArcGeometry(radius=1e-4, half_span=3e-6, gap=1e-7):
        case ArcGeometry(radius, half_span, gap=gap):
            assert (radius, half_span, gap) == (1e-4, 3e-6, 1e-7)
        case _:
            pytest.fail("no match")
